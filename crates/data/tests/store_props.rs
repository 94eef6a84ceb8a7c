//! Property tests of the replicated store: convergence under arbitrary
//! write/sync interleavings, and governance invariants that must hold on
//! every path.
//!
//! Randomized inputs are drawn from the workspace's own seeded [`SimRng`]
//! rather than `proptest`, so every run explores the same cases — test
//! determinism is part of the determinism policy (`DESIGN.md`).

use riot_data::{DataKey, DataMeta, KeySpace, PolicyEngine, ReplicatedStore, Sensitivity};
use riot_model::{Domain, DomainId, DomainRegistry, Jurisdiction, TrustLevel};
use riot_sim::{SimRng, SimTime};

const CASES: usize = 200;

fn registry() -> DomainRegistry {
    let mut reg = DomainRegistry::new();
    reg.register(Domain {
        id: DomainId(0),
        name: "city".into(),
        jurisdiction: Jurisdiction::EuGdpr,
    });
    reg.register(Domain {
        id: DomainId(1),
        name: "vendor".into(),
        jurisdiction: Jurisdiction::UsCcpa,
    });
    reg.set_trust(DomainId(0), DomainId(1), TrustLevel::Partner);
    reg
}

#[derive(Debug, Clone)]
enum Op {
    /// (replica, key, value) — local write at increasing timestamps.
    Put(usize, u8, u32),
    /// (from, to) — one-way anti-entropy push.
    Sync(usize, usize),
}

fn ops(rng: &mut SimRng, replicas: usize) -> Vec<Op> {
    let n = rng.range_u64(0, 60) as usize;
    (0..n)
        .map(|_| {
            if rng.chance(0.5) {
                Op::Put(
                    rng.range_u64(0, replicas as u64) as usize,
                    rng.range_u64(0, 6) as u8,
                    rng.range_u64(0, 100) as u32,
                )
            } else {
                Op::Sync(
                    rng.range_u64(0, replicas as u64) as usize,
                    rng.range_u64(0, replicas as u64) as usize,
                )
            }
        })
        .collect()
}

/// The six keys the scripts write, `k0`…`k5`, in the one key space every
/// replica shares.
fn keys() -> (KeySpace, Vec<DataKey>) {
    let space = KeySpace::new();
    let keys = (0..6).map(|k| space.intern(&format!("k{k}"))).collect();
    (space, keys)
}

fn fingerprint(store: &ReplicatedStore) -> Vec<(DataKey, u64, u32)> {
    store
        .iter()
        .map(|(k, e)| (k, e.written_at.as_micros(), e.writer))
        .collect()
}

/// After any interleaving of writes and one-way syncs, a final round of
/// all-pairs exchanges makes every replica identical (anti-entropy
/// convergence on LWW state).
#[test]
fn stores_converge_after_full_exchange() {
    let mut rng = SimRng::seed_from(0x570E_0001);
    for _ in 0..CASES {
        let script = ops(&mut rng, 4);
        let reg = registry();
        let (space, keys) = keys();
        let mut stores: Vec<ReplicatedStore> = (0..4)
            .map(|i| {
                let policy = PolicyEngine::permissive();
                ReplicatedStore::with_keys(i as u32, DomainId(0), policy, space.clone())
            })
            .collect();
        let mut clock = 1u64;
        for op in &script {
            clock += 1;
            match op {
                Op::Put(r, k, v) => {
                    let meta = DataMeta::operational(DomainId(0), SimTime::from_micros(clock));
                    stores[*r].put_key(
                        keys[*k as usize],
                        *v as f64,
                        meta,
                        SimTime::from_micros(clock),
                    );
                }
                Op::Sync(a, b) if a != b => {
                    let msg = stores[*a].sync_out(DomainId(0), &reg, SimTime::ZERO);
                    stores[*b].on_sync(msg, &reg, SimTime::from_micros(clock));
                }
                Op::Sync(..) => {}
            }
        }
        // Two full all-pairs rounds guarantee convergence.
        for _ in 0..2 {
            for a in 0..4 {
                for b in 0..4 {
                    if a != b {
                        let msg = stores[a].sync_out(DomainId(0), &reg, SimTime::ZERO);
                        stores[b].on_sync(msg, &reg, SimTime::from_micros(clock + 1));
                    }
                }
            }
        }
        let reference = fingerprint(&stores[0]);
        for s in &stores[1..] {
            assert_eq!(fingerprint(s), reference, "replicas diverged");
        }
    }
}

/// Governance safety on every path: however writes and syncs interleave,
/// a governed vendor-domain store never holds a resting privacy
/// violation — personal records are stopped at ingress or egress.
#[test]
fn governed_store_never_rests_on_violations() {
    let mut rng = SimRng::seed_from(0x570E_0002);
    for _ in 0..CASES {
        let script = ops(&mut rng, 3);
        let personal_every = rng.range_u64(1, 4) as u8;
        let reg = registry();
        // Store 0 and 1 are permissive city stores; store 2 is a governed
        // vendor store receiving whatever the others push.
        let (space, keys) = keys();
        let store = |replica, domain, policy| {
            ReplicatedStore::with_keys(replica, DomainId(domain), policy, space.clone())
        };
        let mut stores = [
            store(0, 0, PolicyEngine::permissive()),
            store(1, 0, PolicyEngine::permissive()),
            store(2, 1, PolicyEngine::governed()),
        ];
        let mut clock = 1u64;
        for op in &script {
            clock += 1;
            match op {
                Op::Put(r, k, v) => {
                    let sensitivity = if k % personal_every == 0 {
                        Sensitivity::Personal
                    } else {
                        Sensitivity::Internal
                    };
                    let meta = DataMeta {
                        sensitivity,
                        purposes: riot_data::PurposeSet::only(riot_data::Purpose::Operations),
                        origin: DomainId(0),
                        produced_at: SimTime::from_micros(clock),
                    };
                    let r = r % 3;
                    stores[r].ingest_key(
                        keys[*k as usize],
                        *v as f64,
                        meta,
                        &reg,
                        SimTime::from_micros(clock),
                    );
                }
                Op::Sync(a, b) if a != b => {
                    let (a, b) = (a % 3, b % 3);
                    if a == b {
                        continue;
                    }
                    let to_domain = stores[b].domain();
                    let msg = stores[a].sync_out(to_domain, &reg, SimTime::ZERO);
                    stores[b].on_sync(msg, &reg, SimTime::from_micros(clock));
                }
                Op::Sync(..) => {}
            }
            // The invariant holds at every step, not just at the end.
            assert_eq!(
                stores[2].privacy_violations(&reg),
                0,
                "a governed store must never rest on a violation"
            );
        }
    }
}

/// Duplicate delivery is harmless: a retried push changes nothing. Over the
/// seeded scripts, every `SyncMsg` is delivered twice in a row; the second
/// `on_sync` installs no entry and leaves the receiver's fingerprint as the
/// first left it — the idempotence a retry-on-timeout transport with LWW
/// merge relies on. Stores span two domains and both postures, so denied
/// and redacted entries are redelivered too.
#[test]
fn a_redelivered_push_installs_nothing() {
    let mut rng = SimRng::seed_from(0x570E_0003);
    let mut installed = 0;
    for _ in 0..CASES {
        let script = ops(&mut rng, 3);
        let reg = registry();
        let (space, keys) = keys();
        let store = |replica, domain, policy| {
            ReplicatedStore::with_keys(replica, DomainId(domain), policy, space.clone())
        };
        let mut stores = [
            store(0, 0, PolicyEngine::permissive()),
            store(1, 0, PolicyEngine::governed()),
            store(2, 1, PolicyEngine::governed()),
        ];
        let mut clock = 1u64;
        for op in &script {
            clock += 1;
            let now = SimTime::from_micros(clock);
            match op {
                Op::Put(r, k, v) => {
                    let sensitivity = if k % 2 == 0 {
                        Sensitivity::Personal
                    } else {
                        Sensitivity::Internal
                    };
                    let meta = DataMeta {
                        sensitivity,
                        purposes: riot_data::PurposeSet::only(riot_data::Purpose::Operations),
                        origin: DomainId((*k % 2) as u32),
                        produced_at: now,
                    };
                    stores[r % 3].put_key(keys[*k as usize], *v as f64, meta, now);
                }
                Op::Sync(a, b) if a % 3 != b % 3 => {
                    let (a, b) = (a % 3, b % 3);
                    let to_domain = stores[b].domain();
                    let msg = stores[a].sync_out(to_domain, &reg, SimTime::ZERO);
                    installed += stores[b].on_sync(msg.clone(), &reg, now);
                    let once = fingerprint(&stores[b]);
                    assert_eq!(stores[b].on_sync(msg, &reg, now), 0, "second delivery");
                    assert_eq!(fingerprint(&stores[b]), once, "second delivery");
                }
                Op::Sync(..) => {}
            }
        }
    }
    assert!(installed > 0, "the scripts must install something once");
}
