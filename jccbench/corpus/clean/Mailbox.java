package jcc.corpus.clean;

/**
 * A one-message mailbox synchronized on a private lock object instead of
 * `this`: exercises `Object lock = new Object()` declarations,
 * `synchronized (lock)` blocks, and `lock.wait()` / `lock.notifyAll()`.
 */
public class Mailbox {
    private final Object lock = new Object();
    private String message = "";
    private boolean present = false;

    public void deliver(String m) {
        synchronized (lock) {
            while (present) {
                lock.wait();
            }
            message = m;
            present = true;
            lock.notifyAll();
        }
    }

    public String collect() {
        synchronized (lock) {
            while (!present) {
                lock.wait();
            }
            present = false;
            lock.notifyAll();
            return message;
        }
    }
}
