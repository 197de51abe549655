(** The major collection of Figure 3.

    Copies the live *older* old data — everything below [young_base] —
    from the local heap into the vproc's current global-heap chunk.  The
    young data (survivors of the immediately preceding minor collection)
    is guaranteed live and is kept local to avoid premature promotion: it
    is slid down to the bottom of the local heap and becomes the whole
    old-data area.

    Roots: the vproc's root cells, proxy referents, and every pointer
    field of the young data.  Synchronization happens only when a global
    chunk fills (charged inside {!Forward.global_dest}). *)

val run : ?cause:Obs.Gc_cause.t -> Ctx.t -> Ctx.mutator -> unit
(** [cause] (default [Forced]) attributes this collection — and its
    prerequisite minor, if one runs — in the trace, metrics, and flight
    recorder. *)
