package jcc.corpus.clean;

/**
 * A single-use countdown barrier: arrivers decrement and wait until the
 * count reaches zero; the last arrival wakes everyone.
 */
public class Barrier {
    private int remaining = 3;

    public synchronized void arrive() {
        remaining = remaining - 1;
        if (remaining == 0) {
            notifyAll();
        }
        while (remaining > 0) {
            wait();
        }
    }

    public synchronized int pending() {
        return remaining;
    }
}
