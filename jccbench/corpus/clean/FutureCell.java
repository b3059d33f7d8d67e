package jcc.corpus.clean;

/**
 * A write-once future: get() blocks until set() delivers the value.
 * Second set() calls are ignored rather than erroneous.
 */
public class FutureCell {
    private int value = 0;
    private boolean done = false;

    public synchronized void set(int v) {
        if (!done) {
            value = v;
            done = true;
            notifyAll();
        }
    }

    public synchronized int get() {
        while (!done) {
            wait();
        }
        return value;
    }

    public synchronized boolean isDone() {
        return done;
    }
}
