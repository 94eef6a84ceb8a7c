//! Property tests: the CRDT join-semilattice laws that make the
//! decentralized data plane safe.
//!
//! Randomized inputs are drawn from the workspace's own seeded [`SimRng`]
//! rather than `proptest`, so every run explores the same cases — test
//! determinism is part of the determinism policy (`DESIGN.md`).

use riot_data::{Crdt, GCounter, LwwRegister, OrSet, PnCounter};
use riot_sim::SimRng;

const CASES: usize = 300;

// ---------- operation generators ----------

#[derive(Debug, Clone)]
enum CounterOp {
    Incr(u32, u64),
    Decr(u32, u64),
}

fn counter_ops(rng: &mut SimRng) -> Vec<CounterOp> {
    let n = rng.range_u64(0, 40) as usize;
    (0..n)
        .map(|_| {
            let r = rng.range_u64(0, 4) as u32;
            let x = rng.range_u64(1, 10);
            if rng.chance(0.5) {
                CounterOp::Incr(r, x)
            } else {
                CounterOp::Decr(r, x)
            }
        })
        .collect()
}

#[derive(Debug, Clone)]
enum SetOp {
    Add(u8),
    Remove(u8),
}

fn set_ops(rng: &mut SimRng) -> Vec<SetOp> {
    let n = rng.range_u64(0, 40) as usize;
    (0..n)
        .map(|_| {
            let v = rng.range_u64(0, 12) as u8;
            if rng.chance(0.5) {
                SetOp::Add(v)
            } else {
                SetOp::Remove(v)
            }
        })
        .collect()
}

fn incr_pairs(rng: &mut SimRng) -> Vec<(u32, u64)> {
    let n = rng.range_u64(0, 30) as usize;
    (0..n)
        .map(|_| (rng.range_u64(0, 6) as u32, rng.range_u64(1, 20)))
        .collect()
}

fn apply_counter(replica: u32, ops: &[CounterOp]) -> PnCounter {
    let mut c = PnCounter::new();
    for op in ops {
        match op {
            CounterOp::Incr(r, x) => c.incr(*r * 10 + replica, *x),
            CounterOp::Decr(r, x) => c.decr(*r * 10 + replica, *x),
        }
    }
    c
}

fn apply_set(replica: u32, ops: &[SetOp]) -> OrSet<u8> {
    let mut s = OrSet::new();
    for op in ops {
        match op {
            SetOp::Add(v) => s.add(*v, replica),
            SetOp::Remove(v) => s.remove(v),
        }
    }
    s
}

/// Checks the three semilattice laws for arbitrary replica states.
fn semilattice_laws<C: Crdt + Clone + PartialEq + std::fmt::Debug>(a: &C, b: &C, c: &C) {
    // Idempotence: a ⊔ a = a
    let mut aa = a.clone();
    aa.merge(a);
    assert_eq!(&aa, a, "idempotence");
    // Commutativity: a ⊔ b = b ⊔ a
    let mut ab = a.clone();
    ab.merge(b);
    let mut ba = b.clone();
    ba.merge(a);
    assert_eq!(ab, ba, "commutativity");
    // Associativity: (a ⊔ b) ⊔ c = a ⊔ (b ⊔ c)
    let mut ab_c = ab.clone();
    ab_c.merge(c);
    let mut bc = b.clone();
    bc.merge(c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    assert_eq!(ab_c, a_bc, "associativity");
}

#[test]
fn gcounter_is_a_semilattice() {
    let mut rng = SimRng::seed_from(0xDA7A_0001);
    let build = |ops: &[(u32, u64)]| {
        let mut g = GCounter::new();
        for (r, x) in ops {
            g.incr(*r, *x);
        }
        g
    };
    for _ in 0..CASES {
        let (xa, xb, xc) = (
            incr_pairs(&mut rng),
            incr_pairs(&mut rng),
            incr_pairs(&mut rng),
        );
        semilattice_laws(&build(&xa), &build(&xb), &build(&xc));
    }
}

#[test]
fn pncounter_is_a_semilattice() {
    let mut rng = SimRng::seed_from(0xDA7A_0002);
    for _ in 0..CASES {
        let (a, b, c) = (
            counter_ops(&mut rng),
            counter_ops(&mut rng),
            counter_ops(&mut rng),
        );
        semilattice_laws(
            &apply_counter(0, &a),
            &apply_counter(1, &b),
            &apply_counter(2, &c),
        );
    }
}

#[test]
fn orset_is_a_semilattice() {
    let mut rng = SimRng::seed_from(0xDA7A_0003);
    for _ in 0..CASES {
        let (a, b, c) = (set_ops(&mut rng), set_ops(&mut rng), set_ops(&mut rng));
        semilattice_laws(&apply_set(0, &a), &apply_set(1, &b), &apply_set(2, &c));
    }
}

#[test]
fn lww_register_is_a_semilattice() {
    let mut rng = SimRng::seed_from(0xDA7A_0004);
    // A well-formed LWW history never writes two different values under
    // the same (timestamp, replica) key, so each register writes as its
    // own replica id.
    let build = |writes: &[(u64, u32)], replica: u32| {
        let mut reg = LwwRegister::new(0u32);
        for (t, v) in writes {
            reg.set(*v, *t, replica);
        }
        reg
    };
    let writes = |rng: &mut SimRng| -> Vec<(u64, u32)> {
        let n = rng.range_u64(0, 20) as usize;
        (0..n)
            .map(|_| (rng.range_u64(0, 100), rng.range_u64(0, 50) as u32))
            .collect()
    };
    for _ in 0..CASES {
        let (wa, wb, wc) = (writes(&mut rng), writes(&mut rng), writes(&mut rng));
        semilattice_laws(&build(&wa, 1), &build(&wb, 2), &build(&wc, 3));
    }
}

#[test]
fn gcounter_merge_is_an_upper_bound() {
    let mut rng = SimRng::seed_from(0xDA7A_0006);
    for _ in 0..CASES {
        let (xa, xb) = (incr_pairs(&mut rng), incr_pairs(&mut rng));
        let mut a = GCounter::new();
        for (r, x) in &xa {
            a.incr(*r, *x);
        }
        let mut b = GCounter::new();
        for (r, x) in &xb {
            b.incr(*r, *x);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert!(m.value() >= a.value());
        assert!(m.value() >= b.value());
        assert!(m.value() <= a.value() + b.value());
    }
}

#[test]
fn orset_observed_remove_semantics() {
    let mut rng = SimRng::seed_from(0xDA7A_0007);
    for _ in 0..CASES {
        // After any op sequence: removing then merging a replica that
        // concurrently re-added keeps the element.
        let ops = set_ops(&mut rng);
        let concurrent_add = rng.range_u64(0, 12) as u8;
        let mut a = apply_set(0, &ops);
        let mut b = a.clone();
        a.remove(&concurrent_add);
        b.add(concurrent_add, 1);
        a.merge(&b);
        assert!(a.contains(&concurrent_add), "concurrent add must win");
    }
}
