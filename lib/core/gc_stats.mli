(** The collector facts {!Metrics} does not record.

    {!Metrics} is the one per-vproc tally of collections, their copied
    bytes, chunk acquires and steals.  This record keeps what only the
    mutator side sees, and the context's own global-collection tally.
    Each {!Ctx.mutator} and the {!Ctx.t} hold one; the per-vproc records
    leave the context-level fields at zero. *)

type t = {
  mutable promote_batched_values : int;
      (** local values copied through batched promotion cycles *)
  mutable global_count : int;
      (** context-level: global collections completed *)
  mutable global_copied_bytes : int;
      (** context-level: bytes all vprocs evacuated in global collections *)
  mutable alloc_bytes : int;  (** nursery bytes allocated by the mutator *)
  mutable global_alloc_bytes : int;  (** direct global-heap allocations *)
  mutable gc_ns : float;  (** simulated time spent inside collectors *)
}

val create : unit -> t
val add : into:t -> t -> unit
(** Accumulate [t] into [into]. *)

val total : t array -> t

val pp : Metrics.vproc_stats -> Format.formatter -> t -> unit
(** [pp m ppf t] prints the collector report.  Collection counts, copied
    bytes and chunk acquires come from [m] (a {!Metrics.aggregate} or one
    vproc's snapshot row); batched values, the global-collection count,
    allocation and collector time come from [t]. *)
