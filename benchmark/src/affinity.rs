//! CPU placement. A run uses two CPUs: every server thread lives on
//! one, and the driver thread either shares it or takes the other.
//!
//! Left to the scheduler, the driver and the event loop land on the
//! same CPU in one run and on different CPUs in the next, and on this
//! kind of VM a wake-up across CPUs costs 15–20 µs (the sleeping
//! vCPU has exited to the hypervisor) where a context switch costs
//! two: the same build measured 16 µs and 50 µs idle round trips in
//! consecutive runs. So placement is fixed per phase:
//!
//! * phases where driver and server take turns (one request, or one
//!   window, outstanding) run the driver on the servers' CPU, so a
//!   round trip is context switches and the software in between;
//! * the open phase, which must send on schedule whatever the server
//!   is doing, and every write cycle, which must see an
//!   acknowledgement when it is sent and not when the server next
//!   sleeps, give the driver the other CPU, where it spins.
//!
//! Giving the server threads both CPUs while the driver sleeps (idle
//! and closed phases) was measured and is not done. A single server
//! has one runnable thread at a time whatever it is given: the event
//! loop runs a query's shards one after the other and blocks while the
//! writer thread commits. Only a cluster's two nodes can overlap. What
//! the second CPU bought, three 10-second runs each way on one build:
//!
//! | | one CPU | both CPUs |
//! |---|---|---|
//! | `wire_light` idle round trip, µs | 11.2–11.6 | 47.8–54.2 |
//! | `wire_light` closed, 1/s | 275K–279K | 198K–262K |
//! | `cluster_fanout` idle round trip, µs | 108–114 | 182–187 |
//! | `cluster_fanout` closed, 1/s | 7.7K–8.0K | 5.1K–5.5K |
//!
//! Every hop became a cross-CPU wake-up, slower and less steady, and
//! the nodes' overlap did not pay for it. A change that makes the
//! server run threads in parallel will need this table measured again.
//!
//! Threads inherit the mask of the thread that spawns them, so servers
//! are started from inside [`Cores::enter_servers`].

#![allow(unsafe_code)]

/// Room for 1024 CPUs, the kernel's `cpu_set_t`.
type Mask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut Mask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const Mask) -> i32;
}

#[derive(Debug, Clone, Copy)]
pub struct Cores {
    driver: Mask,
    servers: Mask,
    /// `false` on a one-CPU machine: nothing is pinned, the open
    /// phase shares the CPU and its generator runs late.
    pub two: bool,
}

fn single(cpu: usize) -> Mask {
    let mut mask: Mask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

impl Cores {
    /// Picks the first two CPUs this process may run on: the driver's
    /// own, then the servers'.
    pub fn pick() -> Cores {
        let mut allowed: Mask = [0; 16];
        // SAFETY: `allowed` is a live, writable buffer of the size
        // passed; pid 0 is the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), &mut allowed) } == 0;
        let mut cpus = (0..1024).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1);
        match (ok, cpus.next(), cpus.next()) {
            (true, Some(a), Some(b)) => Cores {
                driver: single(a),
                servers: single(b),
                two: true,
            },
            _ => Cores {
                driver: allowed,
                servers: allowed,
                two: false,
            },
        }
    }

    fn apply(&self, mask: &Mask) {
        if self.two {
            // SAFETY: `mask` is a live buffer of the size passed; pid
            // 0 is the calling thread. A refusal leaves the thread
            // where it was, which costs steadiness and nothing else.
            let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask) };
        }
    }

    /// Moves the calling thread, and whatever it spawns from now on,
    /// to the servers' CPU.
    pub fn enter_servers(&self) {
        self.apply(&self.servers);
    }

    /// Moves the calling thread to the driver's own CPU.
    pub fn enter_driver(&self) {
        self.apply(&self.driver);
    }
}
