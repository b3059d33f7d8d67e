package jcc.corpus.buggy;

/**
 * Seeded defect: take() waits on the inner lock while still holding the
 * outer monitor — wait() only releases the inner lock, so put() can
 * never enter to deliver: the nested-monitor lockout.
 * Expected: nested-monitor-wait (FF-T2, high) at the lock.wait() call.
 */
public class NestedMonitorWait {
    private final Object lock = new Object();
    private boolean full = false;
    private int value = 0;

    public synchronized int take() {
        synchronized (lock) {
            while (!full) {
                lock.wait();
            }
            full = false;
            return value;
        }
    }

    public synchronized void put(int v) {
        synchronized (lock) {
            value = v;
            full = true;
            lock.notifyAll();
        }
    }
}
