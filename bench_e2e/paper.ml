(* The paper part of a workload: the five benchmarks of Figures 5-6 on
   the amd48 model, each at 1 vproc and at the parallel vproc count with
   local placement, plus SMVM interleaved at the parallel count (the
   paper's headline placement result).  Configuration is
   [Run_config.default]'s: cache_scale 32, bw_scale 16, the harness heap
   parameters; only the global collector mode and the scheduler seed
   vary. *)

open Manticore_gc

type size = {
  programs : (string * float) list;  (** registry name, scale *)
  vprocs : int;  (** the parallel runs' vproc count *)
}

let figure = { programs = Harness.Figures.figure_workloads ~fast:false; vprocs = 48 }

type run = {
  program : string;
  n_vprocs : int;
  policy : Sim_mem.Page_policy.t;
  makespan_ns : float;
  ok : bool;
}

type layers = {
  parallel : Layers.t;  (** the parallel runs' readings *)
  baseline : Layers.t;
      (** the 1-vproc runs': the same for every scheduler seed, so they
          enter only the decomposition check *)
}

type result = {
  runs : run list;
  layers : layers option;
  setup_s : float;
  calls_s : float list;  (** host seconds of each [Registry.run], in plan order *)
  words : float;
}

let config ~vprocs = Harness.Run_config.default ~machine:Numa.Machines.amd48 ~n_vprocs:vprocs

let span_setup = Spans.name "setup"
let span_run = Spans.name "Registry.run"
let span_read = Spans.name "read_counters"

(* The [Ctx] and scheduler of one run of the plan. *)
let setup ~mode ~seed ((program, _), n_vprocs, policy) =
  let sp = Spans.enter span_setup in
  let cfg = config ~vprocs:n_vprocs in
  let ctx =
    Ctx.create
      ~params:{ cfg.Harness.Run_config.params with Params.global_gc_mode = mode }
      ~cap_scale:(float_of_int cfg.Harness.Run_config.bw_scale)
      ~machine:
        (Numa.Machines.with_scaled_caches cfg.Harness.Run_config.cache_scale
           cfg.Harness.Run_config.machine)
      ~n_vprocs ~policy ()
  in
  let rt = Runtime.Sched.create ~seed ctx in
  let spec = Option.get (Workloads.Registry.find program) in
  Spans.leave sp;
  (ctx, rt, spec)

let execute ~mode ~seed ~into (((program, scale), n_vprocs, policy) as r) =
  let t_setup = Unix.gettimeofday () in
  let ctx, rt, spec = setup ~mode ~seed r in
  let setup_s = Unix.gettimeofday () -. t_setup in
  let ph = Layers.start ?into ctx in
  let w0 = Spans.host_words () and t0 = Unix.gettimeofday () in
  let sp = Spans.enter span_run in
  let ok =
    match Workloads.Registry.run spec rt ~scale with
    | _ -> true
    | exception e ->
        Printf.eprintf "%s at %d vprocs: %s\n%!" program n_vprocs
          (Printexc.to_string e);
        false
  in
  Spans.leave sp;
  let host_s = Unix.gettimeofday () -. t0 and words = Spans.host_words () -. w0 in
  let sp = Spans.enter span_read in
  let makespan_ns = Layers.finish ph ~rt in
  Spans.leave sp;
  ({ program; n_vprocs; policy; makespan_ns; ok }, setup_s, host_s, words)

let plan size =
  List.concat_map
    (fun ((name, _) as p) ->
      let local = Sim_mem.Page_policy.Local in
      [ (p, 1, local); (p, size.vprocs, local) ]
      @ (if name = "smvm" then [ (p, size.vprocs, Sim_mem.Page_policy.Interleaved) ]
         else []))
    size.programs

(* With [layers], the runs' per-layer readings are taken too, at the
   cost of keeping their collector spans. *)
let run ?(layers = false) size ~mode ~seed =
  let layers =
    if layers then Some { parallel = Layers.create (); baseline = Layers.create () }
    else None
  in
  let outs =
    List.map
      (fun ((_, n_vprocs, _) as r) ->
        let into =
          Option.map (fun l -> if n_vprocs > 1 then l.parallel else l.baseline) layers
        in
        execute ~mode ~seed ~into r)
      (plan size)
  in
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0. outs in
  {
    runs = List.map (fun (r, _, _, _) -> r) outs;
    layers;
    setup_s = sum (fun (_, s, _, _) -> s);
    calls_s = List.map (fun (_, _, h, _) -> h) outs;
    words = sum (fun (_, _, _, w) -> w);
  }

let parallel r = List.filter (fun x -> x.n_vprocs > 1) r.runs

let find r program n_vprocs policy =
  List.find
    (fun x ->
      x.program = program && x.n_vprocs = n_vprocs
      && Sim_mem.Page_policy.equal x.policy policy)
    r.runs

(* Geometric mean over the parallel runs of T(1 vproc, local) / T(run):
   the right edge of Figures 5 and 6. *)
let speedup r =
  let ps = parallel r in
  let logs =
    List.map
      (fun x ->
        let t1 = (find r x.program 1 Sim_mem.Page_policy.Local).makespan_ns in
        Float.log (t1 /. x.makespan_ns))
      ps
  in
  Float.exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length ps))

let makespan_ns r = List.fold_left (fun acc x -> acc +. x.makespan_ns) 0. (parallel r)

(* SMVM interleaved over local at the parallel count: below 1 when
   interleaving wins, as in the paper. *)
let smvm_interleaved_over_local r =
  match
    List.partition
      (fun x -> Sim_mem.Page_policy.equal x.policy Sim_mem.Page_policy.Interleaved)
      (List.filter (fun x -> x.program = "smvm" && x.n_vprocs > 1) r.runs)
  with
  | [ i ], [ l ] -> i.makespan_ns /. l.makespan_ns
  | _ -> 0.
