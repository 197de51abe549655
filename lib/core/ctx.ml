open Heap
open Sim_mem

type mutator = {
  id : int;
  node : int;
  lh : Local_heap.t;
  roots : Roots.t;
  proxies : Roots.t;
  remembered : Remember.t;
  mutable now_ns : float;
  mutable in_gc : bool;
  stats : Gc_stats.t;
}

(* One global collection's evacuation state, shared by the STW and the
   concurrent collector (built by [Forward.condemn]). *)
type tospace = {
  mutable ts_from : Sim_mem.Chunk.t list;  (* condemned (from-space) chunks *)
  ts_large : int Queue.t;  (* marked large objects pending a field scan *)
  ts_copied_by : int array;  (* bytes evacuated, per vproc *)
  ts_claims : (int, int) Hashtbl.t;
      (* Chunk.id -> claiming vproc, for parallel evacuation slices:
         helpers prefer unclaimed chunks and pay the claim sync again on
         a takeover, so two slices in one turn scan distinct chunks *)
}

(* In-flight concurrent global collection.  The state lives here (not in
   Concurrent_gc) so the mutator write barrier, the scheduler, and the
   checkers can consult it without a dependency cycle. *)
type conc_state = {
  cg_cause : Obs.Gc_cause.t;
  cg_space : tospace;
  cg_log : Remember.t;
      (* mutation log, active generation (N+1): global slots stored to
         while evacuation is in progress — re-forwarded before the
         collection can finish.  Mutators append here; the collector
         flips it into [cg_drain] and drains that concurrently. *)
  mutable cg_drain : int array;
      (* mutation log, draining generation (N): the address-sorted
         snapshot the collector is working through while mutators keep
         appending to [cg_log].  Only the flip itself needs the barrier. *)
  mutable cg_drain_pos : int;  (* next unprocessed slot in [cg_drain] *)
  cg_entered : bool array;  (* per-vproc root handshake done *)
  cg_keep_done : bool array;
      (* per-vproc overlapped conservative-keep pass done (local
         forwarding words with condemned targets evacuated + retargeted
         concurrently, instead of inside the ratify barrier) *)
  cg_taints : int array;
      (* per-vproc from-space re-acquisition counter: bumped whenever a
         mutator-context read touches a condemned address or returns a
         from-space pointer value (and on channel commits handing one
         over).  Compared against the handshake snapshot to decide
         ratify dirtiness — the handshake leaves the vproc with no
         from-space reference, and re-acquiring one requires exactly
         such a read or hand-off. *)
  cg_hs_taints : int array;  (* cg_taints.(v) at (re-)handshake *)
  cg_reclean : int array;
      (* per-vproc count of concurrent re-clean slices this cycle: a
         vproc that tainted after its handshake is re-handshaken
         barrier-free while the cycle is otherwise quiescent (bounded
         rounds), so the ratify barrier stops only vprocs dirtied since
         their last re-clean *)
  cg_t_start : float;  (* virtual time the collection started *)
  mutable cg_slices : int;
  cg_cycle : int;
      (* 0-based id of this concurrent cycle (the global-collection count
         when it started), threaded through every Conc_* obs event so
         gcprof can reconstruct per-cycle phase timelines *)
}

type t = {
  store : Store.t;
  cost : Numa.Cost_model.t;
  global : Global_heap.t;
  params : Params.t;
  muts : mutator array;
  global_roots : Roots.t;
  mutable global_gc_pending : bool;
  mutable global_budget_bytes : int;
  mutable safe_point_hook : t -> mutator -> unit;
  (* Collection nesting depth: a major runs a minor, a global runs both
     per vproc.  [on_collection] fires only when the outermost collection
     finishes, i.e. when the whole heap is back in a consistent state. *)
  mutable gc_depth : int;
  mutable on_collection : (t -> Gc_trace.kind -> unit) option;
  mutable conc : conc_state option;
  stats : Gc_stats.t;
  trace : Gc_trace.t;
  metrics : Metrics.t;
  obs : Obs.Recorder.t;
}

let create ?(params = Params.default) ?(cap_scale = 1.) ~machine ~n_vprocs
    ~policy () =
  (match Params.validate params with
  | Ok () -> ()
  | Error m -> invalid_arg ("Ctx.create: " ^ m));
  let cores = Numa.Topology.sparse_core_assignment machine n_vprocs in
  let vproc_node v = Numa.Topology.node_of_core machine cores.(v) in
  let store =
    Store.create
      ~n_nodes:(Numa.Topology.n_nodes machine)
      ~capacity_bytes:params.Params.capacity_bytes
      ~page_bytes:params.Params.page_bytes ~policy
  in
  let cost = Numa.Cost_model.create ~cap_scale machine ~n_vprocs ~vproc_node in
  let global =
    Global_heap.create ~affinity:params.Params.chunk_affinity store ~n_vprocs
      ~chunk_bytes:params.Params.chunk_bytes
  in
  let muts =
    Array.init n_vprocs (fun id ->
        let node = vproc_node id in
        (* Stagger (color) heap bases with a one-page spacer: equally
           aligned heaps would put every vproc's hot low pages on the
           same cache sets and the same interleave residue. *)
        ignore
          (Sim_mem.Page_alloc.alloc store.Store.pa ~policy
             ~requester_node:node ~bytes:params.Params.page_bytes);
        {
          id;
          node;
          lh =
            Local_heap.create store ~vproc:id ~node
              ~bytes:params.Params.local_heap_bytes;
          roots = Roots.create ();
          proxies = Roots.create ();
          remembered = Remember.create ();
          now_ns = 0.;
          in_gc = false;
          stats = Gc_stats.create ();
        })
  in
  {
    store;
    cost;
    global;
    params;
    muts;
    global_roots = Roots.create ();
    global_gc_pending = false;
    global_budget_bytes = n_vprocs * params.Params.global_budget_per_vproc;
    safe_point_hook =
      (fun _ _ ->
        failwith
          "Ctx: global collection pending but no safe-point hook installed \
           (install one with Ctx.set_safe_point_hook or \
           Global_gc.install_sync_hook)");
    gc_depth = 0;
    on_collection = None;
    conc = None;
    stats = Gc_stats.create ();
    trace = Gc_trace.create ();
    metrics = Metrics.create ~n_vprocs ();
    obs =
      Obs.Recorder.create ~n_vprocs
        ~n_nodes:(Numa.Topology.n_nodes machine)
        ~node_of_vproc:vproc_node ();
  }

let mutator t i = t.muts.(i)
let n_vprocs t = Array.length t.muts
let conc_active t = t.conc <> None

let conc_from_chunks t =
  match t.conc with None -> [] | Some st -> st.cg_space.ts_from
let set_safe_point_hook t f = t.safe_point_hook <- f
let request_global_gc t = t.global_gc_pending <- true
let set_global_budget t b = t.global_budget_bytes <- b

(* Deterministic trigger point instrumentation for checkers (the fuzzer
   re-validates the heap after every top-level collection, including the
   ones allocation triggers implicitly). *)
let set_on_collection t f = t.on_collection <- f
let enter_collection t = t.gc_depth <- t.gc_depth + 1

let exit_collection t kind =
  t.gc_depth <- t.gc_depth - 1;
  if t.gc_depth = 0 then
    match t.on_collection with Some f -> f t kind | None -> ()

(* Enumerate every live root cell the runtime knows about: per-vproc
   roots and proxy cells, and the context-wide global roots.  [f] gets
   the owning vproc (None for global roots) and whether the cell is a
   proxy registration. *)
let iter_all_roots t f =
  Array.iter
    (fun m ->
      Roots.iter m.roots (fun c -> f ~vproc:(Some m.id) ~proxy:false c);
      Roots.iter m.proxies (fun c -> f ~vproc:(Some m.id) ~proxy:true c))
    t.muts;
  Roots.iter t.global_roots (fun c -> f ~vproc:None ~proxy:false c)

(* The one reporting path: every collector span enters the flight
   recorder, the live trace and the metrics here, so no sink can see a
   collection the others miss or stamp it differently. *)
let coll_begin t (m : mutator) kind ~cause ~t_ns =
  Obs.Recorder.record t.obs ~vproc:m.id ~t_ns
    (Obs.Event.Coll_begin { kind; cause })

let coll_end ?pause_ns ?(count_cause = true) t (m : mutator) kind ~cause
    ~t_start ~t_end ~bytes =
  if Gc_trace.enabled t.trace then
    Gc_trace.record t.trace
      {
        Gc_trace.vproc = m.id;
        kind;
        cause;
        node = m.node;
        t_start_ns = t_start;
        t_end_ns = t_end;
        bytes;
      };
  Metrics.record_pause
    ?cause:(if count_cause then Some cause else None)
    ~t_ns:t_end t.metrics ~vproc:m.id ~kind
    ~ns:(Option.value pause_ns ~default:(t_end -. t_start))
    ~bytes;
  Obs.Recorder.record t.obs ~vproc:m.id ~t_ns:t_end
    (Obs.Event.Coll_end { kind; cause; bytes })

(* Thief [m] probed [victim]'s deque: the metrics and the ring see the
   same attempts and successes, in the same order. *)
let steal_probe t (m : mutator) ~victim ~success =
  Metrics.record_steal t.metrics ~vproc:m.id ~success;
  Obs.Recorder.record t.obs ~vproc:m.id ~t_ns:m.now_ns
    (Obs.Event.Steal_attempt { victim });
  if success then
    Obs.Recorder.record t.obs ~vproc:m.id ~t_ns:m.now_ns
      (Obs.Event.Steal_success { victim })

(* [m] idles at a synchronization point until [t_to]: the gap is its own
   pause kind, nested inside the enclosing Global span, so wait and copy
   time stay apart. *)
let barrier_wait t (m : mutator) ~cause ~t_to =
  let t_from = m.now_ns in
  coll_begin t m Gc_trace.Barrier ~cause ~t_ns:t_from;
  m.now_ns <- t_to;
  coll_end t m Gc_trace.Barrier ~cause ~t_start:t_from ~t_end:t_to ~bytes:0

let check_invariants t =
  (* Mutated old-to-young slots recorded in remembered sets are legal
     transient states; tell the checker which slots those are. *)
  let remembered slot =
    Array.exists (fun m -> Remember.mem m.remembered slot) t.muts
  in
  (* While a concurrent evacuation is in flight, local forwarding words
     may target objects that were themselves evacuated (a chain the
     ratify pause retargets); tell the checker to tolerate them. *)
  Invariants.check t.store ~remembered ~evacuating:(conc_active t)
    ~locals:(Array.map (fun m -> m.lh) t.muts)
    ~global:t.global

(* Re-check the whole heap after every global collection
   (MANTICORE_PARANOID=1); used to localize heap corruption in tests. *)
let paranoid =
  match Sys.getenv_opt "MANTICORE_PARANOID" with
  | Some ("1" | "true") -> true
  | _ -> false

(* The tail every global collection shares, STW or concurrent. *)
let finish_global t ~collector ~copied_by =
  t.stats.Gc_stats.global_count <- t.stats.Gc_stats.global_count + 1;
  t.stats.Gc_stats.global_copied_bytes <-
    t.stats.Gc_stats.global_copied_bytes + Array.fold_left ( + ) 0 copied_by;
  t.global_gc_pending <- false;
  (* If live data alone exceeds the budget, grow it: a fixed threshold
     would retrigger at once and thrash. *)
  let in_use = Global_heap.in_use_bytes t.global in
  if in_use * 3 / 2 > t.global_budget_bytes then
    t.global_budget_bytes <- in_use * 2;
  exit_collection t Gc_trace.Global;
  if paranoid then
    match check_invariants t with
    | Ok _ -> ()
    | Error errs ->
        (* Post-mortem: the flight recorder's tail is the best record of
           what the collectors were doing when the heap went bad. *)
        prerr_string (Obs.Recorder.dump_tail t.obs);
        failwith
          (collector ^ " paranoid check failed:\n" ^ String.concat "\n" errs)

(* Inlined so the charged amount reaches the clock unboxed: the store
   into [now_ns] is the one allocation a charge makes. *)
let[@inline] charge_ns m ns =
  m.now_ns <- m.now_ns +. ns;
  if m.in_gc then m.stats.Gc_stats.gc_ns <- m.stats.Gc_stats.gc_ns +. ns

let charge_work t m ~cycles =
  charge_ns m (cycles /. (Numa.Cost_model.topology t.cost).Numa.Topology.ghz)

let charge_access t m addr bytes =
  let dst_node = Memory.node_of_addr t.store.Store.mem addr in
  charge_ns m
    (Numa.Cost_model.access t.cost ~vproc:m.id ~dst_node ~addr ~bytes
       ~now_ns:m.now_ns)
      .ns

let charge_bulk t m addr bytes =
  let dst_node = Memory.node_of_addr t.store.Store.mem addr in
  charge_ns m
    (Numa.Cost_model.bulk t.cost ~vproc:m.id ~dst_node ~addr ~bytes
       ~now_ns:m.now_ns)
      .ns

(* The from-space test of both global collectors: [addr] is in a chunk
   the running collection condemned, or — with [large] — in a large
   object, which is marked in place rather than copied (evacuating a
   marked one is a no-op).  One page-table read; allocates nothing. *)
let from_space t ~large addr =
  match Heap_index.region t.store.Store.index addr with
  | Heap_index.Global_chunk c -> c.Chunk.from_space
  | Heap_index.Large _ -> large
  | Heap_index.Free | Heap_index.Local _ -> false

(* From-space re-acquisition taint, the concurrent collector's
   dirtiness source: a handshake leaves a vproc holding no from-space
   reference, so to stash one again the mutator must first *read* it —
   either by touching a condemned address (resolving through a stale
   alias) or by loading a word that decodes to a from-space pointer (an
   unscanned to-space slot, or a large object the cycle has not marked).
   Counting those reads lets the ratify barrier skip every vproc whose
   counter is unchanged since its handshake.  Collector-context reads
   ([in_gc]) forward from-space data by design and never taint. *)
let conc_taint t m v =
  match t.conc with
  | Some st when (not m.in_gc) && Value.is_ptr v ->
      if from_space t ~large:true (Value.to_ptr v) then
        st.cg_taints.(m.id) <- st.cg_taints.(m.id) + 1
  | _ -> ()

(* Taint [m] if the word [v] it just read at [addr] re-acquires a
   from-space reference. *)
let note_read t m addr v =
  match t.conc with
  | Some st when not m.in_gc ->
      (* Raw-word pointer test (not [Value.of_word], which rejects
         headers): aligned, nonzero, even — a forwarding word to a
         condemned target counts too, exactly the stale-alias case. *)
      if
        from_space t ~large:false addr
        || (v <> 0 && v land 7 = 0 && from_space t ~large:true v)
      then st.cg_taints.(m.id) <- st.cg_taints.(m.id) + 1
  | _ -> ()

let read_word t m addr =
  charge_access t m addr 8;
  let w = Memory.get t.store.Store.mem addr in
  note_read t m addr (Int64.to_int w);
  w

(* [read_word] for a tagged word (a value, header or forwarding
   address), without boxing it as an [int64]. *)
let read_int t m addr =
  charge_access t m addr 8;
  let v = Memory.get_int t.store.Store.mem addr in
  note_read t m addr v;
  v

let write_word t m addr w =
  charge_access t m addr 8;
  Memory.set t.store.Store.mem addr w

(* [write_word] for a tagged word, without boxing it as an [int64]. *)
let write_int t m addr v =
  charge_access t m addr 8;
  Memory.set_int t.store.Store.mem addr v

let touch t m ~addr ~bytes = charge_access t m addr bytes
let bulk_touch t m ~addr ~bytes = charge_bulk t m addr bytes

let get_raw t m addr i = read_word t m (Obj_repr.field_addr addr i)
let get_float t m addr i = Int64.float_of_bits (get_raw t m addr i)
let header_of t m addr = read_int t m addr

(* Follow forwarding words from the object at [addr] to its current
   copy. *)
let rec follow t m addr =
  let h = read_int t m addr in
  if h land 1 = 0 then follow t m h else Value.of_ptr addr

let resolve t m v = if Value.is_ptr v then follow t m (Value.to_ptr v) else v

(* Field reads resolve forwarding on the returned pointer: an aliased
   object may have been promoted out from under this reference, and in a
   mutation-free heap following the forwarding word is always sound. *)
let get_field t m addr i =
  resolve t m (Value.of_int_word (read_int t m (Obj_repr.field_addr addr i)))

let census t =
  Census.collect t.store
    ~locals:(Array.map (fun m -> m.lh) t.muts)
    ~global:t.global
