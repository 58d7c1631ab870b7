//! Driver edge cases: wrong thread counts, single-processor worlds, and
//! trivial workloads.

use ssm_core::{Protocol, SimBuilder};
use ssm_proto::{Proc, ThreadBody, Workload, World};

struct WrongCount;
impl Workload for WrongCount {
    fn name(&self) -> String {
        "wrong-count".into()
    }
    fn mem_bytes(&self) -> usize {
        4096
    }
    fn spawn(&self, _w: &mut World, _nprocs: usize) -> Vec<ThreadBody> {
        vec![Box::new(|_p: &Proc<'_>| {})] // always one body
    }
}

#[test]
#[should_panic(expected = "one thread body per processor")]
fn wrong_body_count_is_rejected() {
    let _ = SimBuilder::new(Protocol::Ideal).procs(3).run(&WrongCount);
}

struct Empty;
impl Workload for Empty {
    fn name(&self) -> String {
        "empty".into()
    }
    fn mem_bytes(&self) -> usize {
        4096
    }
    fn spawn(&self, _w: &mut World, nprocs: usize) -> Vec<ThreadBody> {
        (0..nprocs)
            .map(|_| Box::new(|_p: &Proc<'_>| {}) as ThreadBody)
            .collect()
    }
}

#[test]
fn empty_workload_finishes_at_time_zero() {
    // Every protocol, so a swapped arm in `SimBuilder::run`'s constructor
    // match shows up as the wrong name.
    for (proto, name) in [
        (Protocol::Ideal, "IDEAL"),
        (Protocol::Hlrc, "HLRC"),
        (Protocol::Aurc, "AURC"),
        (Protocol::Sc, "SC"),
        (Protocol::ScDelayed, "SC-delayed"),
        (Protocol::Rdma, "RDMA"),
    ] {
        let r = SimBuilder::new(proto).procs(4).run(&Empty);
        assert_eq!(r.protocol, name, "{proto:?}");
        assert_eq!(r.total_cycles, 0, "{proto:?}");
        assert_eq!(r.counters.messages, 0, "{proto:?}");
    }
}

#[test]
fn single_processor_lock_and_barrier_are_cheap_on_ideal() {
    struct OneProcSync;
    impl Workload for OneProcSync {
        fn name(&self) -> String {
            "one-proc-sync".into()
        }
        fn mem_bytes(&self) -> usize {
            4096
        }
        fn spawn(&self, w: &mut World, nprocs: usize) -> Vec<ThreadBody> {
            assert_eq!(nprocs, 1);
            let l = w.alloc_lock();
            let b = w.alloc_barrier();
            vec![Box::new(move |p: &Proc<'_>| {
                for _ in 0..100 {
                    p.lock(l);
                    p.unlock(l);
                    p.barrier(b);
                }
            })]
        }
    }
    let r = SimBuilder::new(Protocol::Ideal).procs(1).run(&OneProcSync);
    assert_eq!(r.total_cycles, 0, "ideal sync is free");
    assert_eq!(r.counters.lock_acquires, 100);
    assert_eq!(r.counters.barriers, 100);
}

#[test]
fn huge_compute_blocks_do_not_overflow_accounting() {
    struct Big;
    impl Workload for Big {
        fn name(&self) -> String {
            "big".into()
        }
        fn mem_bytes(&self) -> usize {
            4096
        }
        fn spawn(&self, _w: &mut World, nprocs: usize) -> Vec<ThreadBody> {
            (0..nprocs)
                .map(|_| {
                    Box::new(|p: &Proc<'_>| {
                        p.compute(1 << 40);
                    }) as ThreadBody
                })
                .collect()
        }
    }
    let r = SimBuilder::new(Protocol::Hlrc).procs(2).run(&Big);
    assert_eq!(r.total_cycles, 1 << 40);
}
