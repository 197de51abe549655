(** Shared evacuation machinery used by all four collectors.

    Copying an object writes a forwarding word (the new address, low bit
    0) over the old header, so later references to the old copy resolve
    to the new one — the discrimination rule of Figure 1.

    The second half is the to-space core of global collection (paper
    §3.4), which {!Global_gc} and {!Concurrent_gc} both run on: condemn
    the in-use chunks, evacuate each vproc's roots into to-space chunks,
    claim unscanned chunks (own node first) and Cheney-scan them, then
    release from-space.  The collectors differ only in how they schedule
    that work: one stop-the-world pass, or bounded slices and a short
    ratify barrier. *)

open Heap

type dest = {
  alloc_dst : int -> int;
      (** [alloc_dst bytes] returns the destination address; the provider
          charges any synchronization (e.g. chunk acquisition) *)
  on_copy : int -> int -> unit;
      (** [on_copy dst bytes] — called after each object lands (queueing
          for a later scan, statistics) *)
}

val local_dest :
  Ctx.t -> Ctx.mutator -> bump:int ref -> limit:int ->
  on_copy:(int -> int -> unit) -> dest
(** Bump allocation into the vproc's own reserved copy space (minor
    collections); raises [Failure] if [limit] would be exceeded, which
    indicates a broken Appel split invariant. *)

val global_dest : Ctx.t -> Ctx.mutator -> on_copy:(int -> int -> unit) -> dest
(** Allocation into the vproc's current global chunk, acquiring chunks as
    needed, charging node-local or global synchronization per the chunk's
    provenance, and requesting a global collection when the in-use chunk
    budget is exceeded (paper §3.4). *)

val evacuate : Ctx.t -> Ctx.mutator -> dest:dest -> int -> int
(** [evacuate ctx m ~dest src] — if [src]'s header is a forwarding word,
    return its target; otherwise copy the object to [dest], write the
    forwarding word, and return the new address.  All traffic is charged
    to [m]. *)

val forward_field : Ctx.t -> Ctx.mutator -> dest:dest -> in_from:(int -> bool) -> int -> unit
(** [forward_field ctx m ~dest ~in_from field_addr] — read the word at
    [field_addr]; if it is a pointer into the from region, evacuate the
    target and update the field. *)

val forward_cell : Ctx.t -> Ctx.mutator -> dest:dest -> in_from:(int -> bool) -> Roots.cell -> unit
(** Same for an OCaml-side root cell (no memory charge for the cell
    itself, a small fixed work charge instead). *)

val scan_fields :
  Ctx.t -> Ctx.mutator -> dest:dest -> in_from:(int -> bool) -> int -> unit
(** [scan_fields ctx m ~dest ~in_from] is a scanner that forwards every
    candidate pointer field of the object at the address it is given
    (charged reads/writes).  Build it once per collection: applied, it
    allocates no closure per object. *)

val set_test_corrupt_copy : int -> unit
(** Fault injection for the model-differential fuzzer: [n > 0] makes
    every [n]th evacuation copy only the object header, leaving the body
    words stale — a seeded forwarding bug the differential checker must
    detect.  [0] (the default) disables the fault.  Test-only. *)

val walk_objects : Store.t -> lo:int -> hi:int -> (int -> unit) -> unit
(** Walk the object headers of a contiguous allocated region, skipping
    objects that promotion replaced with forwarding words (their size is
    read from the live global copy).  Uncharged. *)

(** {2 To-space: the global collectors' shared core} *)

val min_clock_vproc :
  ?among:(Ctx.mutator -> bool) -> ?first:Ctx.mutator -> Ctx.t -> Ctx.mutator
(** The vproc among [among] (default: all) with the smallest virtual
    clock: parallel collector work is simulated by handing each unit to
    it.  Ties go to [first] (default vproc 0), then to the lowest id.
    Also the deterministic stand-in for "the vproc that noticed first"
    when a collection picks its lead. *)

val max_clock : ?among:(Ctx.mutator -> bool) -> Ctx.t -> float
(** The largest virtual clock among [among] (default: all), or [0.]:
    where a barrier opens. *)

val condemn : Ctx.t -> Ctx.tospace
(** Start a global collection's evacuation: every in-use chunk becomes
    from-space, its [Chunk.from_space] flag set (uncharged; the caller
    charges what its scheme costs), and the to-space work queues start
    empty. *)

type evacuator = {
  m : Ctx.mutator;
  dest : dest;  (** allocation into [m]'s to-space chunks *)
  field : int -> unit;  (** {!forward_field} with the from-space test *)
  cell : Roots.cell -> unit;  (** {!forward_cell} with the from-space test *)
}
(** One vproc's to-space copier, built once and reused for every object
    it scans, so the scan allocates no closures.  Its from-space test is
    {!Ctx.from_space} with [~large:true]. *)

val evacuator : Ctx.t -> Ctx.tospace -> Ctx.mutator -> evacuator
(** Objects it copies count toward the vproc's [ts_copied_by]; large
    objects it marks queue on [ts_large] for their one field scan. *)

val forward_roots : Ctx.t -> evacuator -> unit
(** Evacuate the vproc's roots, its proxy cells, and the from-space
    targets of every field in both of its local-heap regions. *)

val scan_tospace_object : Ctx.t -> evacuator -> int -> int
(** Scan one to-space (or marked large) object, evacuating its
    from-space targets, and return its size in bytes.  A proxy's referent
    is forwarded only when it is not in a local heap. *)

val pending : Ctx.t -> Ctx.tospace -> bool
(** Unscanned to-space work remains: a marked large object, or a chunk
    whose scan pointer trails its allocation pointer. *)

val pick_chunk : Ctx.t -> Ctx.tospace -> Ctx.mutator -> Sim_mem.Chunk.t option
(** The next pending chunk for the vproc: its current chunk, then a
    chunk on its own node, then any — skipping chunks another vproc
    claimed in [ts_claims], unless nothing else is pending. *)

val cheney :
  ?among:(Ctx.mutator -> bool) ->
  ?first:Ctx.mutator ->
  Ctx.t ->
  Ctx.tospace ->
  evacuator array ->
  unit
(** Scan to-space to a fixpoint: while work is {!pending}, the
    {!min_clock_vproc} (same [among] and [first]) takes a queued large
    object or scans a {!pick_chunk} up to its allocation pointer at the
    claim, with the vproc's evacuator from the array (indexed by vproc
    id).  A vproc with nothing to claim is charged 100 cycles so another
    one gets picked. *)

val release : Ctx.t -> Ctx.tospace -> lead:Ctx.mutator -> unit
(** End evacuation: return every from-space chunk to the pool (a
    [Chunk_release] event on [lead]'s ring each; {!Sim_mem.Chunk.release}
    clears the flag) and sweep unmarked large objects. *)
