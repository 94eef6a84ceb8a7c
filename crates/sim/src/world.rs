//! Worlds: what one [`Sim`] runs — the type of its process-table entries,
//! its medium, its scheduled injections and the state its nodes share —
//! and the boxed world that `Sim<M>` names.
//!
//! The kernel is one step loop over any [`World`]. A closed world (an enum
//! of its node types, a concrete medium held by value, an enum of the
//! mutations it schedules, a table its nodes write) dispatches by `match`
//! and is inspected by pattern, with no downcast. [`DynWorld`] takes any
//! [`Process`] and any [`Medium`] behind a box, closures as injections and
//! no shared state; it alone reads a process back by type
//! ([`Sim::process`]).
//!
//! riot-lint: allow-file(P1, reason = "the boxed world's accessors index the process table by ids the kernel mints; an unknown id is a documented `# Panics` contract")

use crate::medium::Medium;
use crate::process::{Ctx, Process, ProcessId};
use crate::sim::Sim;
use crate::time::SimTime;
use std::any::Any;
use std::fmt;
use std::marker::PhantomData;

/// The types a [`Sim`] is generic over, how it applies an injection, and how
/// it dispatches a callback to a node.
pub trait World<M>: Sized {
    /// One entry of the process table.
    type Node;
    /// The medium every send is routed through, held by the [`Sim`].
    type Medium;
    /// A mutation of the run scheduled with [`Sim::inject_at`].
    type Injection;
    /// What the world's nodes write beside their own state, held by the
    /// [`Sim`] beside the medium and lent to the node each callback runs on
    /// ([`Sim::shared`]).
    type Shared;

    /// Applies `injection` at the instant it was scheduled for.
    fn inject(sim: &mut Sim<M, Self>, injection: Self::Injection);

    /// The medium as a [`Ctx`] reaches it for the length of one callback:
    /// one indirect call per send.
    fn medium(medium: &mut Self::Medium) -> &mut dyn Medium<M>;

    /// Runs `node`'s [`Process::on_start`].
    fn on_start(node: &mut Self::Node, shared: &mut Self::Shared, ctx: &mut Ctx<'_, M>);

    /// Delivers `msg` from `from` to `node`, as [`Process::on_message`].
    fn on_message(
        node: &mut Self::Node,
        shared: &mut Self::Shared,
        ctx: &mut Ctx<'_, M>,
        from: ProcessId,
        msg: M,
    );

    /// Fires `node`'s timer `tag`, as [`Process::on_timer`].
    fn on_timer(node: &mut Self::Node, shared: &mut Self::Shared, ctx: &mut Ctx<'_, M>, tag: u64);

    /// Reads what `node`'s next callback will touch, as
    /// [`Process::prefetch`].
    fn prefetch(node: &Self::Node, shared: &Self::Shared);
}

/// Object-safe super-trait that adds downcasting to [`Process`]; blanket
/// implemented for every `'static` process, so user code never sees it.
pub trait AnyProcess<M>: Process<M> {
    /// Upcast to [`Any`] for post-run inspection.
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast to [`Any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<M, T: Process<M> + Any> AnyProcess<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The boxed world: any [`Process`] in the table, any [`Medium`], closures
/// as injections, nothing shared. `Sim<M>` is the kernel over it.
pub struct DynWorld<M>(PhantomData<fn() -> M>);

impl<M: fmt::Debug + 'static> World<M> for DynWorld<M> {
    type Node = Box<dyn AnyProcess<M>>;
    type Medium = Box<dyn Medium<M>>;
    type Injection = Box<dyn FnOnce(&mut Sim<M>)>;
    type Shared = ();

    fn inject(sim: &mut Sim<M>, injection: Self::Injection) {
        injection(sim);
    }

    fn medium(medium: &mut Self::Medium) -> &mut dyn Medium<M> {
        medium.as_mut()
    }

    fn on_start(node: &mut Self::Node, _: &mut (), ctx: &mut Ctx<'_, M>) {
        node.on_start(ctx);
    }

    fn on_message(
        node: &mut Self::Node,
        _: &mut (),
        ctx: &mut Ctx<'_, M>,
        from: ProcessId,
        msg: M,
    ) {
        node.on_message(ctx, from, msg);
    }

    fn on_timer(node: &mut Self::Node, _: &mut (), ctx: &mut Ctx<'_, M>, tag: u64) {
        node.on_timer(ctx, tag);
    }

    fn prefetch(node: &Self::Node, _: &()) {
        node.prefetch();
    }
}

impl<M: fmt::Debug + 'static> Sim<M> {
    /// Adds a process; it will receive `on_start` when the run begins (or
    /// immediately if the run has already begun).
    pub fn add_process(&mut self, proc_: impl Process<M> + 'static) -> ProcessId {
        self.add_node(Box::new(proc_))
    }

    /// Schedules an arbitrary mutation of the simulation at a future
    /// instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_injection(&mut self, at: SimTime, f: impl FnOnce(&mut Sim<M>) + 'static) {
        self.inject_at(at, Box::new(f));
    }

    /// Borrows a process for inspection; `None` if it is not a `T`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn process<T: 'static>(&self, id: ProcessId) -> Option<&T> {
        let node: &dyn AnyProcess<M> = &*self.nodes[id.0];
        node.as_any().downcast_ref::<T>()
    }

    /// Mutably borrows a process for inspection or surgery between events;
    /// `None` if it is not a `T`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn process_mut<T: 'static>(&mut self, id: ProcessId) -> Option<&mut T> {
        let node: &mut dyn AnyProcess<M> = &mut *self.nodes[id.0];
        node.as_any_mut().downcast_mut::<T>()
    }
}
