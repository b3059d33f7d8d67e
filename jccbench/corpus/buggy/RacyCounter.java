package jcc.corpus.buggy;

/**
 * Seeded defect: increment() writes the counter without the lock that
 * protects it everywhere else — lost-update interference.
 * Expected: unlocked-field-access (FF-T1, high) at the unlocked write.
 */
public class RacyCounter {
    private int count = 0;

    public void increment() {
        count = count + 1;
    }

    public synchronized void reset() {
        count = 0;
    }

    public synchronized int get() {
        return count;
    }
}
