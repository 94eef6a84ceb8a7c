//! Design-time verification walkthrough (§IV / Figure 2): before deploying
//! a single device, check the *models* — qualitatively (CTL on a Kripke
//! structure of the failover protocol) and quantitatively (DTMC
//! availability).
//!
//! Run with:
//!
//! ```text
//! cargo run -p riot-core --example design_verification
//! ```

use riot_formal::{Atoms, Ctl, CtlChecker, Dtmc, Kripke, StateId, Valuation};

fn main() {
    println!("Design-time verification of the riot edge-failover design.\n");
    qualitative_model_checking();
    quantitative_availability();
}

/// 1. A Kripke model of one device's controller state during edge churn:
///    served-by-primary, served-by-backup, orphaned. The resilience
///    property: wherever the device ends up, being served again is always
///    reachable (`AG EF served`).
fn qualitative_model_checking() {
    let mut atoms = Atoms::new();
    let served = atoms.intern("served");
    let primary = atoms.intern("on_primary");

    let mut k = Kripke::new();
    let on_primary = k.add_state(Valuation::from_atoms([served, primary]));
    let orphaned = k.add_state(Valuation::EMPTY);
    let on_backup = k.add_state(Valuation::from_atoms([served]));
    // Primary serves until it crashes (→ orphaned).
    k.add_transition(on_primary, on_primary);
    k.add_transition(on_primary, orphaned);
    // An orphan fails over to a backup, or stays orphaned one more round.
    k.add_transition(orphaned, on_backup);
    k.add_transition(orphaned, orphaned);
    // From the backup the device re-probes its primary, or the backup
    // itself crashes.
    k.add_transition(on_backup, on_primary);
    k.add_transition(on_backup, orphaned);
    k.add_transition(on_backup, on_backup);
    k.add_initial(on_primary);

    let checker = CtlChecker::new(&k);
    let recoverable = Ctl::atom(served).ef().ag();
    let always_served = Ctl::atom(served).ag();
    let can_return_home = Ctl::atom(primary).ef().ag();
    println!(
        "  model: 3-state failover protocol, {} transitions",
        k.transition_count()
    );
    println!(
        "  AG EF served        (service always recoverable)   : {}",
        checker.holds_initially(&recoverable)
    );
    println!(
        "  AG served           (service never interrupted)    : {}  ← honest: failover has a gap",
        checker.holds_initially(&always_served)
    );
    println!(
        "  AG EF on_primary    (devices can always come home)  : {}\n",
        checker.holds_initially(&can_return_home)
    );
    assert!(checker.holds_initially(&recoverable));
    assert!(!checker.holds_initially(&always_served));
}

/// 2. Quantitative availability of a device behind an edge with known
///    failure/repair rates — the number a requirements engineer compares
///    against the availability threshold before choosing hardware.
fn quantitative_availability() {
    // Per-second probabilities: edge fails ~ once per 1000 s; repair takes
    // ~20 s; the ML4 failover serves the device from a backup meanwhile
    // with probability 0.95 per second of outage.
    let mut m = Dtmc::new(3);
    let served_primary = StateId(0);
    let served_backup = StateId(1);
    let unserved = StateId(2);
    m.set_transition(served_primary, unserved, 0.001);
    m.set_transition(served_primary, served_primary, 0.999);
    m.set_transition(unserved, served_backup, 0.95);
    m.set_transition(unserved, unserved, 0.05);
    m.set_transition(served_backup, served_primary, 0.05); // primary repaired
    m.set_transition(served_backup, served_backup, 0.95);
    m.validate().expect("stochastic");

    let pi = m.stationary(100_000);
    let availability = pi[served_primary.index()] + pi[served_backup.index()];
    println!(
        "  DTMC long-run service availability with failover: {:.5} (unserved {:.5})",
        availability,
        pi[unserved.index()]
    );
    let p_recover = m.reach_within(&[served_primary, served_backup], 3)[unserved.index()];
    println!("  P(re-served within 3 s of an edge crash) = {p_recover:.4}");
    // Exact balance gives ≈ 0.99897 — "three nines minus a hair", which is
    // precisely the kind of fact one wants *before* buying hardware.
    assert!(availability > 0.995);
    assert!(p_recover > 0.99);
}
