package jcc.corpus.clean;

/**
 * A counting semaphore. acquire() consumes a permit without notifying —
 * correct for a semaphore, and the analyzer's documented benign Medium
 * (missed-notification is heuristic); no High diagnostic fires.
 */
public class Semaphore {
    private int permits = 2;

    public synchronized void acquire() {
        while (permits == 0) {
            wait();
        }
        permits = permits - 1;
    }

    public synchronized void release() {
        permits = permits + 1;
        notifyAll();
    }
}
