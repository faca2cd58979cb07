//! Demonstrates the deadlock watchdog: two ranks that each block receiving
//! from the other. Instead of hanging forever, the run panics within the
//! watchdog timeout with the global wait-for graph and the cycle.
//!
//! ```sh
//! cargo run -p ffw-mpi --example deadlock_demo   # exits non-zero, by design
//! ```
//!
//! Tune the timeout with `FFW_DEADLOCK_TIMEOUT_MS` (default 1000).

fn main() {
    println!("starting 2 ranks that recv from each other (this must panic) ...");
    ffw_mpi::run(2, |comm| {
        let peer = 1 - comm.rank();
        // Both ranks block here; neither ever sends.
        let _ = comm.recv_checked(peer, 7);
    });
    unreachable!("the watchdog should have diagnosed the cycle");
}
