// Golden verdicts of the online monitor on every corpus stream (one
// deterministic VM run per component, scenario templates from the registry)
// and on the Gate FF-T5 walkthrough. `tests/online_monitor.rs` and the e12
// bench both assert against this table, so a detector change that alters
// any verdict string fails loudly.
&[
    (
        "ProducerConsumer",
        &["FF-T5: monitor 0 issued 1 notification(s) with no thread in the wait set — \
           the wake-ups were lost"],
    ),
    (
        "BoundedBuffer",
        &["FF-T5: monitor 0 issued 2 notification(s) with no thread in the wait set — \
           the wake-ups were lost"],
    ),
    (
        "Semaphore",
        &["FF-T5: monitor 0 issued 2 notification(s) with no thread in the wait set — \
           the wake-ups were lost"],
    ),
    (
        "ReadersWriters",
        &["FF-T5: monitor 0 issued 1 notification(s) with no thread in the wait set — \
           the wake-ups were lost"],
    ),
    ("Barrier", &[]),
    (
        "ThreadPool",
        &["FF-T5: monitor 0 issued 3 notification(s) with no thread in the wait set — \
           the wake-ups were lost"],
    ),
    ("FutureCell", &[]),
    (
        "CyclicBarrier",
        &["FF-T5: monitor 0 issued 1 notification(s) with no thread in the wait set — \
           the wake-ups were lost"],
    ),
    (
        "FairSemaphore",
        &["FF-T5: monitor 0 issued 3 notification(s) with no thread in the wait set — \
           the wake-ups were lost"],
    ),
    (
        "BargingSemaphore",
        &["FF-T5: monitor 0 issued 2 notification(s) with no thread in the wait set — \
           the wake-ups were lost"],
    ),
    (
        "ReadWriteLock",
        &["FF-T5: monitor 0 issued 2 notification(s) with no thread in the wait set — \
           the wake-ups were lost"],
    ),
    (
        "Exchanger",
        &["FF-T5: monitor 0 issued 2 notification(s) with no thread in the wait set — \
           the wake-ups were lost"],
    ),
    (
        "BoundedStack",
        &["FF-T5: monitor 0 issued 3 notification(s) with no thread in the wait set — \
           the wake-ups were lost"],
    ),
    (
        "Gate",
        &["FF-T5: monitor 9 issued 1 notification(s) with no thread in the wait set — \
           the wake-ups were lost"],
    ),
]
