//! Property-based test for the message-passing runtime: a token passed
//! around a ring of any size accumulates every rank's id.

use ffw_mpi::{run, Payload};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_pass_accumulates(
        n_ranks in 2usize..8,
        start in 0u64..100,
    ) {
        // token passed around the ring, each rank adds its id
        let token = |v: u64| Payload::C64(vec![(v as f64, 0.0)]);
        let (results, _) = run(n_ranks, move |comm| {
            let me = comm.rank();
            let next = (me + 1) % comm.size();
            let prev = (me + comm.size() - 1) % comm.size();
            let recv = |src| comm.recv_checked(src, 1).expect("recv").into_c64()[0].0 as u64;
            if me == 0 {
                comm.send_checked(next, 1, token(start)).expect("send");
                recv(prev)
            } else {
                let v = recv(prev) + me as u64;
                comm.send_checked(next, 1, token(v)).expect("send");
                v
            }
        });
        let total: u64 = start + (1..n_ranks as u64).sum::<u64>();
        prop_assert_eq!(results[0], total);
    }
}
