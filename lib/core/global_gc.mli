(** The parallel stop-the-world global collection (paper §3.4).

    Triggered when the in-use chunk bytes exceed the budget.  The
    triggering vproc becomes the leader; every vproc is brought to a safe
    point (in the real runtime by zeroing its allocation-limit pointer;
    here by the scheduler's barrier), performs its minor and major
    collections, and then joins the parallel copying phase:

    + all in-use chunks become from-space, gathered per NUMA node;
    + each vproc evacuates its roots, proxies, and young data's global
      targets into a fresh to-space chunk of its own;
    + vprocs repeatedly claim unscanned to-space chunks — preferring
      chunks resident on their own node — and scan them Cheney-style,
      evacuating reachable from-space objects as they go;
    + when no unscanned data remains anywhere, from-space chunks return
      to the free pool and execution resumes.

    Parallelism is simulated by charging each unit of claimed work to the
    claiming vproc's virtual clock and always handing the next unit to
    the vproc whose clock is smallest; the final barrier advances every
    clock to the maximum.

    The copying itself — condemning, root forwarding, the chunk claim
    and the Cheney fixpoint, the release — is {!Forward}'s to-space
    core, the same code {!Concurrent_gc} runs in slices.  What is
    stop-the-world only lives here: the entry minor+major, the entry and
    exit barriers, the [Global_phase] markers, and the walk that
    retargets local forwarding words before from-space is released. *)

val run : ?cause:Obs.Gc_cause.t -> Ctx.t -> unit
(** Requires every mutator to be stopped at a safe point (no fiber holds
    an unrooted heap reference).  [cause] (default [Forced]) attributes
    the collection — and the per-vproc minors/majors it runs — in the
    trace, metrics, and flight recorder. *)

val install_sync_hook : Ctx.t -> unit
(** Make allocation safe points advance the configured global collector
    synchronously — appropriate for single-threaded use and tests.  Under
    {!Params.Stw} a safe point runs a full collection; under
    {!Params.Concurrent} the first safe point starts a cycle and each
    subsequent one advances it by a single bounded {!Concurrent_gc.step}
    slice.  The scheduler installs its own hook instead. *)
