package jcc.corpus.invalid;

/**
 * Deliberately malformed: the first assignment in put() is missing its
 * right-hand side. The parser must report it, synchronize on the `;`,
 * and still parse and analyze the rest of the class — the recovery
 * fixture for exit code 2.
 */
public class SyntaxError {
    private int value = 0;
    private boolean full = false;

    public synchronized void put(int v) {
        value = ;
        full = true;
        notifyAll();
    }

    public synchronized int take() {
        while (!full) {
            wait();
        }
        full = false;
        return value;
    }
}
