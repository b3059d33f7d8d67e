package jcc.corpus.buggy;

/**
 * Seeded defect: the consumer re-checks its guard with `if` instead of
 * `while`, so a spurious or stolen wake-up proceeds on a stale guard.
 * Expected: wait-not-in-loop (EF-T5, medium) at the wait() call.
 */
public class WaitInIf {
    private boolean full = false;
    private int value = 0;

    public synchronized void produce(int v) {
        while (full) {
            wait();
        }
        value = v;
        full = true;
        notifyAll();
    }

    public synchronized int consume() {
        if (!full) {
            wait();
        }
        full = false;
        notifyAll();
        return value;
    }
}
