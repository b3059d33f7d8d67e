package jcc.corpus.buggy;

/**
 * Seeded defect: transfer() locks a then b, audit() locks b then a —
 * the classic circular-wait deadlock.
 * Expected: lock-order-cycle (FF-T2, high).
 */
public class LockOrderCycle {
    private final Object a = new Object();
    private final Object b = new Object();
    private int balanceA = 100;
    private int balanceB = 100;

    public void transfer(int amount) {
        synchronized (a) {
            synchronized (b) {
                balanceA = balanceA - amount;
                balanceB = balanceB + amount;
            }
        }
    }

    public int audit() {
        synchronized (b) {
            synchronized (a) {
                return balanceA + balanceB;
            }
        }
    }
}
