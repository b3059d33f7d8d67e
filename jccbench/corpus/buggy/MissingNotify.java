package jcc.corpus.buggy;

/**
 * Seeded defect: put() sets the guard but no method in the class ever
 * notifies the monitor, so a blocked take() sleeps forever.
 * Expected: no-notifier-for-wait (FF-T5, high) at the wait() call.
 */
public class MissingNotify {
    private int value = 0;
    private boolean full = false;

    public synchronized void put(int v) {
        value = v;
        full = true;
    }

    public synchronized int take() {
        while (!full) {
            wait();
        }
        full = false;
        return value;
    }
}
