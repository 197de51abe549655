(** The per-access cost engine for a simulated machine.

    One instance holds the mutable machine state: a private L1+L2 cache
    model per vproc, a shared L3 model per node, and contention meters for
    every memory bank and every directed node-to-node link.  All simulated
    memory traffic is charged through {!access} or {!bulk}, which return
    the nanoseconds the requesting vproc's virtual clock must advance. *)

type t

type cost = { mutable ns : float }
(** The cell {!access} and {!bulk} hand their result back in.  An
    all-float record is stored flat, so a cost returned this way is not
    boxed on every simulated access.  Each model owns one cell, which
    the next {!access} or {!bulk} call overwrites: read [ns] at once. *)

val create :
  ?cap_scale:float -> Topology.t -> n_vprocs:int -> vproc_node:(int -> int) ->
  t
(** [create topo ~n_vprocs ~vproc_node] — [vproc_node i] gives the NUMA
    node hosting vproc [i] (from {!Topology.sparse_core_assignment}).
    [cap_scale] divides bank/link *capacities* (not per-access costs) for
    scaled-down workloads; see {!Contention.create}. *)

val topology : t -> Topology.t
val vproc_node : t -> int -> int

val access :
  t -> vproc:int -> dst_node:int -> addr:int -> bytes:int -> now_ns:float ->
  cost
(** Cost in ns, in the returned cell, of a load or store by [vproc] touching [bytes] bytes at
    simulated byte address [addr] resident on [dst_node]'s bank.  Probes
    the vproc's L2 and its node's L3 per cache line; misses pay the NUMA
    base latency plus a bandwidth term, inflated by bank and link
    contention. *)

val bulk :
  t -> vproc:int -> dst_node:int -> addr:int -> bytes:int -> now_ns:float ->
  cost
(** Like {!access} for large streaming transfers (GC copying, chunk
    scanning): charged per line with the same cache and contention
    treatment but a single amortized probe per 4 lines, reflecting
    hardware prefetch on sequential scans. *)

val invalidate_range : t -> lo:int -> hi:int -> unit
(** Invalidate every cache (all vprocs' L2s, all L3s) for a reclaimed
    address range. *)

val bank_total_bytes : t -> node:int -> float
val bank_utilization : t -> node:int -> now_ns:float -> float
val link_utilization : t -> src:int -> dst:int -> now_ns:float -> float

val l2_hit_rate : t -> vproc:int -> float
val l3_hit_rate : t -> node:int -> float

val reset_meters : t -> unit
(** Zero all contention meters and cache statistics (not cache contents). *)
