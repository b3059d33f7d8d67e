package jcc.corpus.buggy;

/**
 * Seeded defect: take() waits under no conditional at all — the thread
 * suspends even when a value is already available.
 * Expected: unconditional-wait (EF-T3, high) at the wait() call.
 */
public class UnconditionalWait {
    private int value = 0;
    private boolean full = false;

    public synchronized void put(int v) {
        value = v;
        full = true;
        notifyAll();
    }

    public synchronized int take() {
        wait();
        full = false;
        return value;
    }
}
