int a = 1, b = 2;
thread ta { int i; i = 0; while (i < 2) { int t; t = b; a = a + t; i = i + 1; } }
thread tb { int j; j = 0; while (j < 2) { int t; t = a; b = b + t; j = j + 1; } }
main {
    start ta; start tb; join ta; join tb;
    assert(a < 14 && b < 14);
}
