//! Worlds: what one [`Sim`] runs — the type of its process-table entries,
//! its medium and its scheduled injections — and the boxed world that
//! `Sim<M>` names.
//!
//! The kernel is one step loop over any [`World`]. A closed world (an enum
//! of its node types, a concrete medium held by value, an enum of the
//! mutations it schedules) dispatches by `match` and is inspected by
//! pattern, with no downcast. [`DynWorld`] takes any [`Process`] and any
//! [`Medium`] behind a box and closures as injections; it alone reads a
//! process back by type ([`Sim::process`]).
//!
//! riot-lint: allow-file(P1, reason = "the boxed world's accessors index the process table by ids the kernel mints; an unknown id is a documented `# Panics` contract")

use crate::medium::Medium;
use crate::process::{Ctx, Process, ProcessId};
use crate::sim::Sim;
use crate::time::SimTime;
use std::any::Any;
use std::fmt;
use std::marker::PhantomData;

/// The types a [`Sim`] is generic over, and how it applies an injection.
pub trait World<M>: Sized {
    /// One entry of the process table.
    type Node: Process<M>;
    /// The medium every send is routed through, held by the [`Sim`].
    type Medium;
    /// A mutation of the run scheduled with [`Sim::inject_at`].
    type Injection;

    /// Applies `injection` at the instant it was scheduled for.
    fn inject(sim: &mut Sim<M, Self>, injection: Self::Injection);

    /// The medium as a [`Ctx`] reaches it for the length of one callback:
    /// one indirect call per send.
    fn medium(medium: &mut Self::Medium) -> &mut dyn Medium<M>;
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

impl<M, P: Process<M> + ?Sized> Process<M> for Box<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        (**self).on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId, msg: M) {
        (**self).on_message(ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64) {
        (**self).on_timer(ctx, tag);
    }
    fn prefetch(&self) {
        (**self).prefetch();
    }
}

/// The boxed world: any [`Process`] in the table, any [`Medium`], closures
/// as injections. `Sim<M>` is the kernel over it.
pub struct DynWorld<M>(PhantomData<fn() -> M>);

impl<M: fmt::Debug + 'static> World<M> for DynWorld<M> {
    type Node = Box<dyn AnyProcess<M>>;
    type Medium = Box<dyn Medium<M>>;
    type Injection = Box<dyn FnOnce(&mut Sim<M>)>;

    fn inject(sim: &mut Sim<M>, injection: Self::Injection) {
        injection(sim);
    }

    fn medium(medium: &mut Self::Medium) -> &mut dyn Medium<M> {
        medium.as_mut()
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
        // Through the box: a `Box<dyn AnyProcess<M>>` is itself a process.
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
