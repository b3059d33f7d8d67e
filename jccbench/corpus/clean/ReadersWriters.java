package jcc.corpus.clean;

/**
 * Readers-writers with writer preference: readers wait while a writer is
 * active, writers wait for exclusive access. Every exit notifies all.
 */
public class ReadersWriters {
    private int readers = 0;
    private boolean writing = false;

    public synchronized void beginRead() {
        while (writing) {
            wait();
        }
        readers = readers + 1;
    }

    public synchronized void endRead() {
        readers = readers - 1;
        if (readers == 0) {
            notifyAll();
        }
    }

    public synchronized void beginWrite() {
        while (writing || readers > 0) {
            wait();
        }
        writing = true;
    }

    public synchronized void endWrite() {
        writing = false;
        notifyAll();
    }
}
