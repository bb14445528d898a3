//! Property tests of the simulation engine: event ordering against a
//! sort-based model and server work conservation.

use proptest::prelude::*;

use sabre_sim::{EventQueue, FifoServer, Time};

proptest! {
    #[test]
    fn event_queue_is_a_stable_sort(
        times in proptest::collection::vec(0u64..1000, 1..300),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::from_ns(t), i);
        }
        // Model: stable sort by time of (time, index).
        let mut expected: Vec<(u64, usize)> =
            times.iter().copied().zip(0..).collect();
        expected.sort_by_key(|&(t, _)| t);
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_ps() / 1000, i));
        }
        prop_assert_eq!(popped, expected);
    }

    #[test]
    fn fifo_server_is_work_conserving_and_ordered(
        arrivals in proptest::collection::vec((0u64..1000, 1u64..50), 1..100),
    ) {
        let mut server = FifoServer::new();
        // Feed in arrival order (monotone arrivals, as the DES guarantees).
        let mut sorted = arrivals.clone();
        sorted.sort_by_key(|&(a, _)| a);
        let mut last_start = Time::ZERO;
        let mut busy = Time::ZERO;
        for &(arrive, service) in &sorted {
            let start = server.admit(Time::from_ns(arrive), Time::from_ns(service));
            // FIFO: starts never reorder.
            prop_assert!(start >= last_start);
            // Work conservation: start at arrival or at previous finish.
            prop_assert!(start >= Time::from_ns(arrive));
            last_start = start;
            busy += Time::from_ns(service);
        }
        prop_assert_eq!(server.busy_total(), busy);
        prop_assert_eq!(server.served(), sorted.len() as u64);
    }
}
