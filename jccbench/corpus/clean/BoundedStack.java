package jcc.corpus.clean;

/**
 * A blocking stack tracked by depth only: push waits below capacity,
 * pop waits for a non-empty stack. Compound assignments exercise the
 * frontend's ++/-- desugaring.
 */
public class BoundedStack {
    private int depth = 0;
    private int limit = 8;

    public synchronized void push() {
        while (depth >= limit) {
            wait();
        }
        depth++;
        notifyAll();
    }

    public synchronized void pop() {
        while (depth == 0) {
            wait();
        }
        depth--;
        notifyAll();
    }
}
