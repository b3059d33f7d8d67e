package jcc.corpus.clean;

/**
 * A counting bounded buffer: capacity-guarded put, emptiness-guarded
 * take, notifyAll on both transitions.
 */
public class BoundedBuffer {
    private int count = 0;
    private int capacity = 4;

    public synchronized void put() {
        while (count >= capacity) {
            wait();
        }
        count = count + 1;
        notifyAll();
    }

    public synchronized void take() {
        while (count == 0) {
            wait();
        }
        count = count - 1;
        notifyAll();
    }

    public synchronized int size() {
        return count;
    }
}
