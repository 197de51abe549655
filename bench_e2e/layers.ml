(* Per-layer metrics of one part of a workload (the paper programs or
   the server), read from the program's own counters before and after
   each measured phase, plus the virtual-time decomposition check.

   Collector pauses come from the phase's [Gc_trace] spans rather than
   from [Metrics]: the spans carry the same durations [Metrics] records,
   but exactly (not as log-bucket edges), and only for the measured
   phase ([Metrics] has no reset, so a server's histograms also hold
   every collection of its ballast build). *)

open Manticore_gc

(* Collector kinds, indexed as in [kinds]. *)
let kinds = Gc_trace.[| Minor; Major; Promotion; Global; Barrier |]

let kind_ix : Gc_trace.kind -> int = function
  | Minor -> 0
  | Major -> 1
  | Promotion -> 2
  | Global -> 3
  | Barrier -> 4

let barrier = 4

(* Counters that accumulate over a context's lifetime; a phase's share
   is the difference of two readings. *)
type counters = {
  steal_attempts : int;
  steal_successes : int;
  chunk_acquires : int;
  ratified : int;
  ratify_skipped : int;
  batched_cycles : int;
  batched_values : int;
  global_count : int;
  ring_drops : int;
  matrix : int array;  (** src * n_nodes + dst -> bytes copied *)
  bank : float array;  (** per node: bytes through the memory bank *)
  gc_ns : float array;  (** per vproc: virtual time charged in collectors *)
}

let counters (ctx : Ctx.t) =
  let agg = Metrics.aggregate ctx.Ctx.metrics in
  let nodes = Numa.Topology.n_nodes (Numa.Cost_model.topology ctx.Ctx.cost) in
  let obs = ctx.Ctx.obs in
  let batched_cycles =
    List.fold_left
      (fun acc (cause, n) ->
        if String.starts_with ~prefix:"promotion_batched" cause then acc + n
        else acc)
      0 agg.Metrics.causes
  in
  {
    steal_attempts = agg.Metrics.steal_attempts;
    steal_successes = agg.Metrics.steal_successes;
    chunk_acquires = agg.Metrics.chunk_acquires;
    ratified = agg.Metrics.ratified;
    ratify_skipped = agg.Metrics.ratify_skipped;
    batched_cycles;
    batched_values =
      Array.fold_left
        (fun acc (m : Ctx.mutator) ->
          acc + m.Ctx.stats.Gc_stats.promote_batched_values)
        0 ctx.Ctx.muts;
    (* The context's own count: the per-vproc [Gc_stats] never count
       global collections, so [Gc_stats.total] over the vprocs reads 0. *)
    global_count = ctx.Ctx.stats.Gc_stats.global_count;
    ring_drops =
      List.fold_left
        (fun acc v -> acc + Obs.Recorder.dropped obs ~vproc:v)
        0
        (List.init (Obs.Recorder.n_vprocs obs) Fun.id);
    matrix =
      Array.init (nodes * nodes) (fun i ->
          Obs.Recorder.matrix_get obs ~src_node:(i / nodes)
            ~dst_node:(i mod nodes));
    bank =
      Array.init nodes (fun node ->
          Numa.Cost_model.bank_total_bytes ctx.Ctx.cost ~node);
    gc_ns =
      Array.map (fun (m : Ctx.mutator) -> m.Ctx.stats.Gc_stats.gc_ns) ctx.Ctx.muts;
  }

(* The accumulated readings of one part over the runs of a pass. *)
type t = {
  sums : (string, float) Hashtbl.t;
  pauses : float list array;  (** per kind: every pause, ns *)
  mutable bank_by_node : float array;
  mutable whole_ns : float;  (** n_vprocs x makespan, summed over runs *)
  mutable mutator_ns : float;
  excl_ns : float array;
  mutable idle_ns : float;
  mutable part_negative : bool;
}

let create () =
  {
    sums = Hashtbl.create 64;
    pauses = Array.make (Array.length kinds) [];
    bank_by_node = [||];
    whole_ns = 0.;
    mutator_ns = 0.;
    excl_ns = Array.make (Array.length kinds) 0.;
    idle_ns = 0.;
    part_negative = false;
  }

(* A measured phase in progress: every vproc clock reads [t0].  With
   [into], the phase's readings are added to it when the phase ends; only
   then is [Gc_trace] on, since while on it keeps every collector event
   of the phase in memory. *)
type phase = { ctx : Ctx.t; t0 : float; into : (t * counters) option }

let start ?into (ctx : Ctx.t) =
  let t0 = (Ctx.mutator ctx 0).Ctx.now_ns in
  Array.iter
    (fun (m : Ctx.mutator) ->
      if m.Ctx.now_ns <> t0 then invalid_arg "Layers.start: clocks differ")
    ctx.Ctx.muts;
  let into =
    Option.map
      (fun t ->
        Gc_trace.clear ctx.Ctx.trace;
        Gc_trace.enable ctx.Ctx.trace;
        (t, counters ctx))
      into
  in
  { ctx; t0; into }

(* Virtual time of one vproc split by collector kind: each instant of a
   pause goes to the innermost (latest-started) span open over it, so
   nested spans (a minor inside a major inside a global) count once. *)
let exclusive ~lo ~hi spans =
  let out = Array.make (Array.length kinds) 0. in
  let spans =
    List.filter_map
      (fun (s, e, k) ->
        let s = Float.max lo s and e = Float.min hi e in
        if e > s then Some (s, e, k) else None)
      spans
    |> List.sort (fun (s1, e1, _) (s2, e2, _) ->
           match Float.compare s1 s2 with 0 -> Float.compare e2 e1 | c -> c)
    |> Array.of_list
  in
  let points =
    Array.fold_left (fun acc (s, e, _) -> s :: e :: acc) [] spans
    |> List.sort_uniq Float.compare
    |> Array.of_list
  in
  let next = ref 0 and active = ref [] in
  for i = 0 to Array.length points - 2 do
    let a = points.(i) and b = points.(i + 1) in
    while !next < Array.length spans && (let s, _, _ = spans.(!next) in s <= a) do
      active := spans.(!next) :: !active;
      incr next
    done;
    active := List.filter (fun (_, e, _) -> e > a) !active;
    match !active with
    | [] -> ()
    | x :: rest ->
        let _, _, k =
          List.fold_left
            (fun ((s1, e1, _) as best) ((s2, e2, _) as c) ->
              if s2 > s1 || (s2 = s1 && e2 < e1) then c else best)
            x rest
        in
        out.(k) <- out.(k) +. (b -. a)
  done;
  out

let add t k x =
  Hashtbl.replace t.sums k (x +. Option.value ~default:0. (Hashtbl.find_opt t.sums k))

let get t k = Option.value ~default:0. (Hashtbl.find_opt t.sums k)

(* Float rounding on clocks near 1e9 ns; a part below minus this is
   negative for real. *)
let rounding_ns = 1e-3

(* The phase's makespan: the largest vproc clock minus [t0]. *)
let makespan ph =
  Array.fold_left (fun acc (m : Ctx.mutator) -> Float.max acc m.Ctx.now_ns)
    ph.t0 ph.ctx.Ctx.muts
  -. ph.t0

(* Add the ended phase's readings, [b] being the counters at its start,
   to [t]. *)
let accumulate ~idle t ph b ~(rt : Runtime.Sched.t) =
  let ctx = ph.ctx in
  let after = counters ctx in
  let n = Ctx.n_vprocs ctx in
  let t_end = ph.t0 +. makespan ph in
  Gc_trace.disable ctx.Ctx.trace;
  let per_vproc = Array.make n [] in
  List.iter
    (fun (e : Gc_trace.event) ->
      let k = kind_ix e.Gc_trace.kind in
      let d = e.Gc_trace.t_end_ns -. e.Gc_trace.t_start_ns in
      let name = Gc_trace.kind_to_string e.Gc_trace.kind in
      add t (name ^ ".count") 1.;
      add t (name ^ ".pause_ns") d;
      add t (name ^ ".bytes") (float_of_int e.Gc_trace.bytes);
      t.pauses.(k) <- d :: t.pauses.(k);
      per_vproc.(e.Gc_trace.vproc) <-
        (e.Gc_trace.t_start_ns, e.Gc_trace.t_end_ns, k)
        :: per_vproc.(e.Gc_trace.vproc))
    (Gc_trace.events ctx.Ctx.trace);
  Gc_trace.clear ctx.Ctx.trace;
  (* Decomposition: each vproc's share of n x makespan is its clock
     advance plus its idle tail after its last move.  The advance splits
     into collector time charged through [Ctx.charge_ns] ([gc_ns]),
     barrier waits (clock jumps, not charges), the generator's wait, and
     the mutator's rest; the pause parts come from the spans.  Any
     disagreement between charged and traced collector time is left in
     the remainder. *)
  t.whole_ns <- t.whole_ns +. (float_of_int n *. (t_end -. ph.t0));
  Array.iteri
    (fun v (m : Ctx.mutator) ->
      let excl = exclusive ~lo:ph.t0 ~hi:t_end per_vproc.(v) in
      Array.iteri (fun k x -> t.excl_ns.(k) <- t.excl_ns.(k) +. x) excl;
      let wait = if v = fst idle then snd idle else 0. in
      let charged = after.gc_ns.(v) -. b.gc_ns.(v) in
      let mutator = m.Ctx.now_ns -. ph.t0 -. charged -. excl.(barrier) -. wait in
      let idle = t_end -. m.Ctx.now_ns +. wait in
      if Float.min mutator (Float.min idle charged) < -.rounding_ns then
        t.part_negative <- true;
      t.mutator_ns <- t.mutator_ns +. mutator;
      t.idle_ns <- t.idle_ns +. idle)
    ctx.Ctx.muts;
  let st = Runtime.Sched.stats rt in
  add t "sends" (float_of_int st.Runtime.Sched.sends);
  let d f = float_of_int (f after - f b) in
  add t "steal_attempts" (d (fun c -> c.steal_attempts));
  add t "steal_successes" (d (fun c -> c.steal_successes));
  add t "chunk_acquires" (d (fun c -> c.chunk_acquires));
  add t "ratified" (d (fun c -> c.ratified));
  add t "ratify_skipped" (d (fun c -> c.ratify_skipped));
  add t "batched_cycles" (d (fun c -> c.batched_cycles));
  add t "batched_values" (d (fun c -> c.batched_values));
  add t "global_count" (d (fun c -> c.global_count));
  if ctx.Ctx.params.Params.global_gc_mode = Params.Concurrent then
    add t "conc_cycles" (d (fun c -> c.global_count));
  add t "ring_drops" (d (fun c -> c.ring_drops));
  let cost = ctx.Ctx.cost in
  for v = 0 to n - 1 do
    add t "l2_rate_sum" (Numa.Cost_model.l2_hit_rate cost ~vproc:v);
    add t "l2_n" 1.
  done;
  List.iter
    (fun node ->
      add t "l3_rate_sum" (Numa.Cost_model.l3_hit_rate cost ~node);
      add t "l3_n" 1.)
    (List.sort_uniq compare
       (List.init n (fun v -> Numa.Cost_model.vproc_node cost v)));
  let nodes = Array.length after.bank in
  if Array.length t.bank_by_node < nodes then
    t.bank_by_node <-
      Array.append t.bank_by_node
        (Array.make (nodes - Array.length t.bank_by_node) 0.);
  Array.iteri
    (fun i x -> t.bank_by_node.(i) <- t.bank_by_node.(i) +. (x -. b.bank.(i)))
    after.bank;
  Array.iteri
    (fun i x ->
      let bytes = float_of_int (x - b.matrix.(i)) in
      add t "copy_bytes" bytes;
      if i / nodes <> i mod nodes then add t "remote_copy_bytes" bytes)
    after.matrix

(* End the phase once the run is over and return its makespan; with
   [into], first add the phase's readings to it.  [idle] is virtual time
   the caller knows its own fiber spent waiting, and the vproc it ran on
   (the load generator's wait for the next arrival). *)
let finish ?(idle = (0, 0.)) ph ~rt =
  Option.iter (fun (t, before) -> accumulate ~idle t ph before ~rt) ph.into;
  makespan ph

let unattributed_ns t =
  t.whole_ns
  -. (t.mutator_ns +. Array.fold_left ( +. ) 0. t.excl_ns +. t.idle_ns)

(* The parts sum to the whole by construction, with whatever charged
   and traced collector time disagree on left in the remainder.  The
   check fails when a vproc has a negative part, or, given [bound], when
   the remainder exceeds that share of the whole. *)
let decomposition_ok ?bound t =
  let rest = unattributed_ns t in
  if t.part_negative then Error "a vproc has a negative part"
  else
    match bound with
    | Some b when Float.abs rest > b *. t.whole_ns ->
        Error
          (Printf.sprintf "unattributed %.6f ms is beyond %g of the whole %.6f ms"
             (rest /. 1e6) b (t.whole_ns /. 1e6))
    | _ -> Ok ()

(* Nearest-rank quantile of every pause of one kind (exact, from the
   spans); 0 when the kind never ran. *)
let pause_quantile t k q =
  match t.pauses.(k) with
  | [] -> 0.
  | ps ->
      let a = Stats.sorted (Array.of_list ps) in
      a.(Stats.rank ~n:(Array.length a) q - 1)

let pct num den = if den > 0. then 100. *. num /. den else 0.

(* The part's per-layer metrics: (name, value, unit).  Without
   [global], the global-collection metrics other than the count are
   left out: a part that never collects globally would report them as
   constant zeros. *)
let metrics ?(global = true) t =
  let ms k = get t k /. 1e6 and mb k = get t k /. 1e6 in
  let kind_max k = List.fold_left Float.max 0. t.pauses.(k) in
  let cycles = get t "promotion.count" in
  let singleton_cycles = cycles -. get t "batched_cycles" in
  let bank_total = Array.fold_left ( +. ) 0. t.bank_by_node in
  let global_metrics =
    [
      ("global_gc.pause_ms", ms "global.pause_ns", "ms");
      ("global_gc.pause_max_us", kind_max 3 /. 1e3, "us");
      ("global_gc.copied_mb", mb "global.bytes", "MB");
      ("barrier.wait_ms", ms "barrier.pause_ns", "ms");
      ("barrier.wait_p999_us", pause_quantile t barrier Stats.p999 /. 1e3, "us");
      ("concurrent_gc.cycles", get t "conc_cycles", "count");
      ( "concurrent_gc.ratify_skipped_pct",
        pct (get t "ratify_skipped") (get t "ratified" +. get t "ratify_skipped"),
        "%" );
    ]
  in
  [
    ("runtime.mutator_ms", t.mutator_ns /. 1e6, "ms");
    ("runtime.idle_ms", t.idle_ns /. 1e6, "ms");
    ("runtime.unattributed_ms", unattributed_ns t /. 1e6, "ms");
    ("runtime.steal_attempts", get t "steal_attempts", "count");
    ( "runtime.steal_success_pct",
      pct (get t "steal_successes") (get t "steal_attempts"),
      "%" );
    ("runtime.sends", get t "sends", "count");
    ("minor_gc.count", get t "minor.count", "count");
    ("minor_gc.pause_ms", ms "minor.pause_ns", "ms");
    ("minor_gc.copied_mb", mb "minor.bytes", "MB");
    ("major_gc.count", get t "major.count", "count");
    ("major_gc.pause_ms", ms "major.pause_ns", "ms");
    ("major_gc.copied_mb", mb "major.bytes", "MB");
    ("promote.cycles", cycles, "count");
    ("promote.pause_ms", ms "promotion.pause_ns", "ms");
    ("promote.copied_mb", mb "promotion.bytes", "MB");
    ( "promote.values_per_cycle",
      (if cycles > 0. then (get t "batched_values" +. singleton_cycles) /. cycles
       else 0.),
      "values" );
    ("global_gc.count", get t "global_count", "count");
  ]
  @ (if global then global_metrics else [])
  @ [
      ( "core.pause_p999_us",
        Array.fold_left Float.max 0.
          (Array.mapi (fun k _ -> pause_quantile t k Stats.p999) kinds)
        /. 1e3,
        "us" );
      ("numa.l2_hit_pct", pct (get t "l2_rate_sum") (get t "l2_n"), "%");
      ("numa.l3_hit_pct", pct (get t "l3_rate_sum") (get t "l3_n"), "%");
      ("numa.bank_gb", bank_total /. 1e9, "GB");
      ( "numa.bank_max_node_pct",
        pct (Array.fold_left Float.max 0. t.bank_by_node) bank_total,
        "%" );
      ( "numa.remote_copy_pct",
        pct (get t "remote_copy_bytes") (get t "copy_bytes"),
        "%" );
      ("sim_mem.chunk_acquires", get t "chunk_acquires", "count");
      ("obs.ring_drops", get t "ring_drops", "count");
    ]

(* The decomposition's parts, for the human-readable report. *)
let parts t =
  [ ("mutator", t.mutator_ns) ]
  @ Array.to_list
      (Array.mapi
         (fun k x -> (Gc_trace.kind_to_string kinds.(k), x))
         t.excl_ns)
  @ [ ("idle", t.idle_ns); ("unattributed", unattributed_ns t);
      ("whole", t.whole_ns) ]
