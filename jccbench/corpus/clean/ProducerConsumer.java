package jcc.corpus.clean;

/**
 * The textbook one-slot producer/consumer cell: guarded waits in while
 * loops, notifyAll after every state change. Clean under every check.
 */
public class ProducerConsumer {
    private int value = 0;
    private boolean full = false;

    public synchronized void produce(int v) {
        while (full) {
            wait();
        }
        value = v;
        full = true;
        notifyAll();
    }

    public synchronized int consume() {
        while (!full) {
            wait();
        }
        full = false;
        notifyAll();
        return value;
    }
}
