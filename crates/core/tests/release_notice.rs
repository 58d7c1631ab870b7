//! The one per-protocol difference in the shared lock manager: the context
//! a lock-release notice is sent from. HLRC sends it from the release
//! handler, so its send overhead is Protocol time; SC and RDMA send it from
//! the application, so it is not.

use ssm_hlrc::Hlrc;
use ssm_mem::MemConfig;
use ssm_net::CommParams;
use ssm_proto::{LockId, Machine, ProtoCosts, Protocol, WorldShape};
use ssm_rdma::Rdma;
use ssm_sc::Sc;
use ssm_stats::Bucket;

/// Protocol time charged to P0 while it releases a lock managed at node 1
/// without having written anything.
fn protocol_time_of_release(proto: &mut dyn Protocol) -> u64 {
    let mut m = Machine::new(
        2,
        CommParams::achievable(),
        ProtoCosts::original(),
        MemConfig::pentium_pro_like(),
    );
    let shape = WorldShape {
        heap_bytes: 1 << 16,
        nlocks: 2,
        nbarriers: 0,
    };
    proto.init(&m, &shape);
    m.clock[0] = proto.lock(&mut m, 0, LockId(1)).expect("free lock");
    let before = m.breakdowns()[0].get(Bucket::Protocol);
    let _ = proto.unlock(&mut m, 0, LockId(1));
    m.breakdowns()[0].get(Bucket::Protocol) - before
}

#[test]
fn only_hlrc_sends_the_release_notice_from_handler_context() {
    let host = CommParams::achievable().host_overhead;
    assert_eq!(protocol_time_of_release(&mut Hlrc::new()), host);
    assert_eq!(protocol_time_of_release(&mut Hlrc::aurc()), host);
    assert_eq!(protocol_time_of_release(&mut Sc::new(64)), 0);
    assert_eq!(protocol_time_of_release(&mut Sc::delayed(64)), 0);
    assert_eq!(protocol_time_of_release(&mut Rdma::new(64)), 0);
}
