package jcc.corpus.buggy;

/**
 * Seeded defect: signal() notifies without holding the monitor — at run
 * time this is an IllegalMonitorStateException, so the notification is
 * never delivered.
 * Expected: monitor-not-held (FF-T1, high) at the notifyAll() call.
 */
public class MonitorNotHeld {
    private boolean ready = false;

    public void signal() {
        ready = true;
        notifyAll();
    }

    public synchronized void await() {
        while (!ready) {
            wait();
        }
    }
}
