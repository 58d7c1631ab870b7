//! Micro-benchmarks of the simulator's hot paths: the event queue, the
//! cache model, the shared store's bulk codec, the network model, and the
//! two protocols' fundamental transactions. Uses the std-only timing loop from `ssm_bench::bench`
//! (the hermetic build carries no benchmark-harness dependency).
//!
//! Run with `cargo bench -p ssm-bench --bench micro`.

use std::hint::black_box;

use ssm_bench::bench;
use ssm_engine::EventQueue;
use ssm_hlrc::Hlrc;
use ssm_mem::{Hierarchy, MemConfig};
use ssm_net::{CommParams, Network};
use ssm_proto::{Machine, ProtoCosts, Protocol, World, WorldShape, PAGE_SIZE};
use ssm_sc::Sc;

fn machine(n: usize) -> Machine {
    Machine::new(
        n,
        CommParams::achievable(),
        ProtoCosts::original(),
        MemConfig::pentium_pro_like(),
    )
}

fn shape() -> WorldShape {
    WorldShape {
        heap_bytes: 1 << 22,
        nlocks: 1,
        nbarriers: 1,
    }
}

fn main() {
    bench("event_queue/push_pop_1k", || {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push((i * 7919) % 1000, i);
        }
        let mut sum = 0u64;
        while let Some((_, e)) = q.pop() {
            sum += e;
        }
        black_box(sum)
    });

    // The cache benches build one hierarchy and move to fresh addresses
    // every iteration, so each line misses (and, once the caches are
    // full, evicts): they time the per-line walk, not the set-up.
    {
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        let (mut now, mut addr) = (0, 0);
        bench("cache/stream_64kb", || {
            now += h.stream_range(now, addr, 64 * 1024, false);
            addr += 64 * 1024;
            black_box(now)
        });
    }
    {
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        let (mut now, mut addr) = (0, 0);
        bench("cache/touch_4kb", || {
            now += h.touch_range(now, addr, 4096, true);
            addr += 4096;
            black_box(now)
        });
    }
    {
        // Mostly pages with no resident line, as when a protocol
        // invalidates a page this node has not touched since.
        let mut h = Hierarchy::new(MemConfig::pentium_pro_like());
        h.stream_range(0, 0, 256 * 1024, true);
        let mut addr = 0;
        bench("cache/invalidate_page", || {
            h.invalidate_range(addr, PAGE_SIZE);
            addr += PAGE_SIZE;
            black_box(addr)
        });
    }

    {
        // The untimed bulk copies behind `read_block`/`write_block`: 2048
        // `f64`s decoded from or encoded into the shared byte store.
        let mut world = World::new(16 * 1024);
        let v = world.alloc_vec::<f64>(2048);
        let vals: Vec<f64> = (0..2048).map(f64::from).collect();
        bench("shmem/write_direct_16kb", || {
            v.write_direct(0, black_box(&vals));
        });
        bench("shmem/read_direct_16kb", || {
            black_box(v.read_direct(0, 2048))
        });
    }

    {
        let mut net = Network::new(16, CommParams::achievable());
        let mut t = 0;
        bench("network/deliver_page", || {
            t += 1;
            black_box(net.deliver(t, 0, 1, PAGE_SIZE))
        });
    }

    bench("hlrc/page_fetch", || {
        let mut m = machine(4);
        let mut p = Hlrc::new();
        p.init(&m, &shape());
        black_box(p.read(&mut m, 1, 0, 8))
    });
    bench("hlrc/twin_diff_cycle", || {
        let mut m = machine(4);
        let mut p = Hlrc::new();
        p.init(&m, &shape());
        // Write a remote page, then flush at a release.
        let t = p.write(&mut m, 1, 0, 256);
        m.clock[1] = t;
        assert!(p.lock_table_mut().acquire(ssm_proto::LockId(0), 1));
        black_box(p.unlock(&mut m, 1, ssm_proto::LockId(0)))
    });

    bench("sc/read_miss_64b", || {
        let mut m = machine(4);
        let mut p = Sc::new(64);
        p.init(&m, &shape());
        black_box(p.read(&mut m, 1, 0, 8))
    });
    bench("sc/write_invalidate_3_sharers", || {
        let mut m = machine(4);
        let mut p = Sc::new(64);
        p.init(&m, &shape());
        for q in 1..4 {
            let t = p.read(&mut m, q, 0, 8);
            m.clock[q] = t;
        }
        black_box(p.write(&mut m, 1, 0, 8))
    });
}
