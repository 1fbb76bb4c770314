// Store buffering with a barrier that never runs.  Under SC one thread
// always reads the other's write, so the assertion holds (exit 0).  Under
// TSO/PSO both stores can sit in store buffers while both loads run, and
// the fences are in branches that are never taken: the weak outcome
// a == 0 && b == 0 is reachable (exit 10 with --memory-model tso).
int x = 0, y = 0, a = 0, b = 0;
thread t1 { x = 1; if (0) { fence; } a = y; }
thread t2 { y = 1; if (0) { fence; } b = x; }
main {
    start t1; start t2; join t1; join t2;
    assert(a == 1 || b == 1);
}
