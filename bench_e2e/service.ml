(* The server part of a workload: open-loop Poisson requests served by
   long-lived CML sessions on 8 vprocs of the amd48 model, over a
   ~10 MB retained global ballast that the global collector must copy
   during service.

   The benchmark issues the arrivals itself instead of calling
   [Workloads.Server.run_load], for two reasons: [run_load] schedules
   arrivals from virtual time 0, so every request due during setup
   would be charged the setup as latency; and it keeps latencies only
   in bucketed histograms, while the end-to-end percentiles here are
   exact.  The arrival times are [Server.arrival_plan]'s, shifted so
   the first request falls due exactly when service starts; each
   request does the work of [Server]'s sessions, and the total is
   checked against [Server.expected_load]. *)

open Heap
open Manticore_gc
open Runtime

type size = {
  rate_rps : float;
  n_requests : int;
  n_sessions : int;
  n_vprocs : int;
  ballast_rotations : int;  (** 100 retained cells per rotation *)
  rearm_every : int;
      (** requests between re-arms of the global budget at the live size
          plus [headroom], so collections of the ballast keep landing
          during service *)
}

let figure =
  {
    rate_rps = 50_000.;
    n_requests = 96_000;
    n_sessions = 8;
    n_vprocs = 8;
    ballast_rotations = 4_380;
    rearm_every = 8_000;
  }

let headroom = 64 * 1024

let rearm (ctx : Ctx.t) =
  Ctx.set_global_budget ctx (Global_heap.in_use_bytes ctx.Ctx.global + headroom)

(* The latency objective BENCH_7 declares: p99 <= 30 us. *)
let slo_ns = 30_000.

(* [bench --global]'s heap parameters: small local heaps and chunks, and
   a tight global budget so collections run during the ballast build. *)
let params mode =
  {
    Params.default with
    Params.capacity_bytes = 64 * 1024 * 1024;
    local_heap_bytes = 32 * 1024;
    chunk_bytes = 8 * 1024;
    nursery_min_bytes = 4 * 1024;
    global_budget_per_vproc = 8 * 1024;
    global_gc_mode = mode;
  }

(* [Server]'s request content and per-request work. *)
let payload_ints id = [ id; id * 7 mod 97; id * 13 mod 89 ]
let response_of id = List.fold_left ( + ) 0 (payload_ints id)
let session_churn = 24
let session_window = 8
let session_cycles = 6_000.

let load size ~arrival_seed =
  {
    Workloads.Server.rate_rps = size.rate_rps;
    n_requests = size.n_requests;
    n_sessions = size.n_sessions;
    seed = arrival_seed;
  }

(* The first request's due time, relative to service start: 0 by
   construction, whatever the plan's first inter-arrival gap. *)
let due_offsets plan = Array.map (fun a -> a -. plan.(0)) plan

type setup = {
  ctx : Ctx.t;
  rt : Sched.t;
  keeps : Roots.cell array;
  built_sum : int;
}

let span_setup = Spans.name "setup"
let span_build = Spans.name "ballast_build"
let span_alloc = Spans.name "Alloc.alloc_vector"
let span_promote = Spans.name "Promote.value"
let span_run = Spans.name "Sched.run"
let span_read = Spans.name "read_counters"

(* Host words the traced build allocates inside [Alloc.alloc_vector]. *)
let alloc_words = ref 0.

(* Build the ballast the way [bench --global] does: direct mutator turns,
   round-robin, 100 cells a turn, each vproc's chain promoted at the end
   of its turn; then re-arm the global budget just above the live data
   so the service phase collects the ballast, and align every vproc's
   clock so the measured phase starts at one instant. *)
let setup size ~mode ~seed =
  let sp = Spans.enter span_setup in
  let ctx =
    Ctx.create ~params:(params mode) ~machine:Numa.Machines.amd48
      ~n_vprocs:size.n_vprocs ~policy:Sim_mem.Page_policy.Local ()
  in
  Global_gc.install_sync_hook ctx;
  let keeps =
    Array.init size.n_vprocs (fun v ->
        Roots.add (Ctx.mutator ctx v).Ctx.roots (Value.of_int 0))
  in
  let built_sum = ref 0 in
  let bsp = Spans.enter span_build in
  let traced = !Spans.on in
  for turn = 0 to size.ballast_rotations - 1 do
    let v = turn mod size.n_vprocs in
    let m = Ctx.mutator ctx v in
    for i = 1 to 100 do
      built_sum := !built_sum + i;
      let w0 = if traced then Gc.minor_words () else 0. in
      let s = Spans.enter span_alloc in
      let cell = Alloc.alloc_vector ctx m [| Value.of_int i; Roots.get keeps.(v) |] in
      Spans.leave s;
      if traced then alloc_words := !alloc_words +. (Gc.minor_words () -. w0);
      Roots.set keeps.(v) cell
    done;
    let s = Spans.enter span_promote in
    let g = Promote.value ctx m (Roots.get keeps.(v)) in
    Spans.leave s;
    Roots.set keeps.(v) g
  done;
  Spans.leave bsp;
  if Concurrent_gc.active ctx then Concurrent_gc.finish ctx;
  rearm ctx;
  let t0 =
    Array.fold_left (fun acc (m : Ctx.mutator) -> Float.max acc m.Ctx.now_ns)
      0. ctx.Ctx.muts
  in
  Array.iter (fun (m : Ctx.mutator) -> Ctx.charge_ns m (t0 -. m.Ctx.now_ns)) ctx.Ctx.muts;
  let rt = Sched.create ~seed ctx in
  Spans.leave sp;
  { ctx; rt; keeps; built_sum = !built_sum }

(* Sum of every ballast cell's first field, read through whatever the
   collections left behind. *)
let traverse s =
  let c = s.ctx in
  let sum = ref 0 in
  Array.iteri
    (fun v keep ->
      let m = Ctx.mutator c v in
      let cursor = ref (Roots.get keep) in
      while Value.is_ptr !cursor do
        let p = Value.to_ptr (Ctx.resolve c m !cursor) in
        sum := !sum + Value.to_int (Value.of_word (Ctx.read_word c m (Obj_repr.field_addr p 0)));
        cursor := Value.of_word (Ctx.read_word c m (Obj_repr.field_addr p 1))
      done)
    s.keeps;
  !sum

let session rt c (m : Ctx.mutator) ~req_ch ~ctl_ch ~resp_ch =
  let live = Roots.add m.Ctx.roots Pml.Pval.nil in
  let acc = ref 0 and handled = ref 0 and running = ref true in
  while !running do
    Sched.tick rt m;
    let arm, msg =
      Sched.sync rt m [ Sched.Recv_evt req_ch; Sched.Recv_evt ctl_ch ]
    in
    if arm = 1 then running := false
    else begin
      let xs = Pml.Pval.ints_of_list c m msg in
      let id = match xs with id :: _ -> id | [] -> 0 in
      for i = 1 to session_churn do
        ignore (Pml.Pval.cons c m (Value.of_int i) Pml.Pval.nil)
      done;
      Roots.set live (Pml.Pval.cons c m (Value.of_int id) (Roots.get live));
      incr handled;
      if !handled mod session_window = 0 then Roots.set live Pml.Pval.nil;
      Ctx.charge_work c m ~cycles:session_cycles;
      let sum = List.fold_left ( + ) 0 xs in
      acc := !acc + sum;
      Sched.send rt m resp_ch (Pml.Pval.list_of_ints c m [ sum ])
    end
  done;
  Roots.remove m.Ctx.roots live;
  Value.of_int !acc

type result = {
  start_ns : float;  (** the generator's clock when service started *)
  due_ns : float array;  (** when each request fell due *)
  latency_ns : float array;  (** per request; [infinity] when it failed *)
  failed : int;
  late_max_ns : float;  (** how late the generator issued a request *)
  makespan_ns : float;
  checksum_ok : bool;
  ballast_ok : bool;
  host_s : float;  (** wall time of the service's [Sched.run] *)
  words : float;  (** host words it allocated *)
}

(* The service phase: issue every arrival at its due time, serve it, and
   check each response and the total.  With [layers], the phase's
   per-layer readings are added to it. *)
let serve ?layers size s ~arrival_seed =
  let rt = s.rt and c = s.ctx in
  let load = load size ~arrival_seed in
  let due = due_offsets (Workloads.Server.arrival_plan load) in
  let n = size.n_requests in
  let latency = Array.make n nan in
  let wrong = Array.make n false in
  let late_max = ref 0. and gen_wait = ref 0. and rearm_due = ref false in
  let start_ns = ref nan and due_ns = Array.make n nan and gen_vproc = ref 0 in
  let sum = ref 0 in
  let ph = Layers.start ?into:layers c in
  let main (m : Ctx.mutator) =
    (* Any idle vproc may pick up the main fiber: it is the one that
       issues every arrival. *)
    let start = m.Ctx.now_ns in
    start_ns := start;
    gen_vproc := m.Ctx.id;
    let req_chs = Array.init size.n_sessions (fun _ -> Sched.new_channel rt m) in
    let ctl_chs = Array.init size.n_sessions (fun _ -> Sched.new_channel rt m) in
    let resp_chs = Array.init size.n_sessions (fun _ -> Sched.new_channel rt m) in
    let sessions =
      Array.init size.n_sessions (fun k ->
          Sched.spawn rt m ~env:[||] (fun m _ ->
              session rt c m ~req_ch:req_chs.(k) ~ctl_ch:ctl_chs.(k)
                ~resp_ch:resp_chs.(k)))
    in
    let requests =
      Array.init n (fun i ->
          let t_due = start +. due.(i) in
          due_ns.(i) <- t_due;
          if m.Ctx.now_ns < t_due then begin
            gen_wait := !gen_wait +. (t_due -. m.Ctx.now_ns);
            Ctx.charge_ns m (t_due -. m.Ctx.now_ns)
          end;
          (* Re-arm between cycles only: mid-cycle, the in-use size
             counts from-space and to-space both. *)
          if i > 0 && i mod size.rearm_every = 0 then rearm_due := true;
          if !rearm_due && not (Concurrent_gc.active c) then begin
            rearm c;
            rearm_due := false
          end;
          Sched.tick rt m;
          let k = i mod size.n_sessions in
          let msg = Pml.Pval.list_of_ints c m (payload_ints i) in
          late_max := Float.max !late_max (m.Ctx.now_ns -. t_due);
          Sched.spawn rt m ~env:[| msg |] (fun m env ->
              Sched.send rt m req_chs.(k) env.(0);
              let resp = Sched.recv rt m resp_chs.(k) in
              let v = List.fold_left ( + ) 0 (Pml.Pval.ints_of_list c m resp) in
              if v = response_of i then latency.(i) <- m.Ctx.now_ns -. t_due
              else wrong.(i) <- true;
              Value.of_int v))
    in
    Array.iter (fun f -> sum := !sum + Value.to_int (Sched.await rt m f)) requests;
    Array.iter (fun ch -> Sched.send rt m ch (Value.of_int 0)) ctl_chs;
    Array.iter (fun f -> sum := !sum + Value.to_int (Sched.await rt m f)) sessions;
    Array.iter (Sched.close_channel rt) req_chs;
    Array.iter (Sched.close_channel rt) ctl_chs;
    Array.iter (Sched.close_channel rt) resp_chs;
    Value.unit
  in
  let w0 = Spans.host_words () and t_host = Unix.gettimeofday () in
  let sp = Spans.enter span_run in
  let ran =
    match Sched.run rt ~main with
    | _ -> true
    | exception e ->
        Printf.eprintf "server: %s\n%!" (Printexc.to_string e);
        false
  in
  Spans.leave sp;
  let host_s = Unix.gettimeofday () -. t_host and words = Spans.host_words () -. w0 in
  let sp = Spans.enter span_read in
  let makespan_ns = Layers.finish ph ~rt ~idle:(!gen_vproc, !gen_wait) in
  let ballast_ok = traverse s = s.built_sum in
  Spans.leave sp;
  let failed = ref 0 in
  Array.iteri
    (fun i l ->
      if Float.is_nan l || wrong.(i) then begin
        incr failed;
        latency.(i) <- infinity
      end)
    latency;
  {
    start_ns = !start_ns;
    due_ns;
    latency_ns = latency;
    failed = !failed;
    late_max_ns = !late_max;
    makespan_ns;
    checksum_ok =
      ran && float_of_int !sum = Workloads.Server.expected_load load;
    ballast_ok;
    host_s;
    words;
  }
