//! The benchmark's clock: CPU time consumed by this process, and a
//! yardstick that scales it to a fixed host speed.
//!
//! The benchmark runs on hosts that share their cores with other work. The
//! CPU time the process itself consumed leaves out the time it spent
//! descheduled; every workload is single-threaded and does no I/O while
//! timed, so on an idle host it equals the wall clock. Threads the program
//! under test might start are counted too: this is the whole process's
//! time, not the calling thread's.
//!
//! CPU time does not leave out a host that runs slower. The fastest speed a
//! 2-vCPU guest reached in a 25 s run fell by up to a quarter for minutes
//! at a time, so the same code's best latencies moved by as much from one
//! run to the next. The [`Yardstick`] is a fixed piece of the benchmark's
//! own work, timed every 20 ms of CPU time through the run. Its best time
//! measures the host's fastest speed in the run, and the reported times
//! are scaled by `YARDSTICK_NOMINAL_S / best`. A change to jcc does not
//! move the yardstick, so it moves the scaled times by the same factor as
//! the unscaled ones.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has consumed so far.
pub fn now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds spent since `start` (a value of [`now`]).
pub fn since(start: f64) -> f64 {
    now() - start
}

/// CPU time between two samples of the yardstick.
const YARDSTICK_EVERY_S: f64 = 0.02;

/// The yardstick's best time at the host speed the reported times are
/// scaled to: about its best on a 2-vCPU KVM guest (Xeon, 2.1 GHz), where
/// it ranged from 184 to 223 µs from run to run.
const YARDSTICK_NOMINAL_S: f64 = 0.000_2;

/// Width of the yardstick's state vectors, in words.
const YARD_WIDTH: usize = 24;
/// Steps of one yardstick sample.
const YARD_STEPS: usize = 4_000;

/// A fixed piece of work, timed between inputs, that follows the host's
/// speed: a seeded walk over small state vectors, each hashed and interned
/// in an open-addressing table with full-vector comparison, as the
/// explorers intern their states. Its memory is allocated once, so a
/// sample touches neither the allocator nor a fresh page and does not
/// depend on what the program under test left in the heap.
pub struct Yardstick {
    best: f64,
    samples: usize,
    last: f64,
    pool: Vec<u32>,
    table: Vec<u32>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        Yardstick {
            best: f64::INFINITY,
            samples: 0,
            last: f64::NEG_INFINITY,
            pool: vec![0; YARD_STEPS * YARD_WIDTH],
            table: vec![0; (2 * YARD_STEPS).next_power_of_two()],
        }
    }

    /// Time the yardstick work if its last sample is `YARDSTICK_EVERY_S`
    /// old; returns the CPU time spent.
    pub fn tick(&mut self) -> f64 {
        let t = now();
        if t - self.last < YARDSTICK_EVERY_S {
            return 0.0;
        }
        std::hint::black_box(self.work());
        let spent = since(t);
        self.best = self.best.min(spent);
        self.samples += 1;
        self.last = now();
        spent
    }

    /// The fastest sample, in seconds.
    pub fn best(&self) -> f64 {
        self.best
    }

    /// The factor that brings this run's times to the nominal host speed.
    pub fn scale(&self) -> f64 {
        if self.best.is_finite() && self.best > 0.0 {
            YARDSTICK_NOMINAL_S / self.best
        } else {
            1.0
        }
    }

    pub fn samples(&self) -> usize {
        self.samples
    }

    /// One sample's work; returns the distinct states seen plus repeats.
    fn work(&mut self) -> usize {
        self.table.fill(0);
        let mask = self.table.len() - 1;
        let mut state = [0u32; YARD_WIDTH];
        let mut x = 0x243f_6a88_85a3_08d3_u64;
        let (mut stored, mut repeats) = (0, 0);
        for _ in 0..YARD_STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 33) as usize % YARD_WIDTH;
            state[i] = (state[i] + ((x >> 20) as u32 & 3)) % 5;
            let mut h = 0xcbf2_9ce4_8422_2325_u64;
            for &w in &state {
                h = (h ^ u64::from(w)).wrapping_mul(0x0100_0000_01b3);
            }
            let mut slot = (h ^ (h >> 29)) as usize & mask;
            loop {
                let entry = self.table[slot] as usize;
                if entry == 0 {
                    let at = stored * YARD_WIDTH;
                    self.pool[at..at + YARD_WIDTH].copy_from_slice(&state);
                    stored += 1;
                    self.table[slot] = stored as u32;
                    break;
                }
                let at = (entry - 1) * YARD_WIDTH;
                if self.pool[at..at + YARD_WIDTH] == state {
                    repeats += 1;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        stored + repeats
    }
}
