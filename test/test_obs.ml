(* The flight recorder: ring overwrite semantics, the cause and event
   codecs, dump round-trips, and the always-on instrumentation promises
   — every recorded collection carries a cause that reconciles with the
   pause telemetry, the NUMA traffic matrix matches the copied-byte
   totals exactly, and failed steals on empty deques count as
   attempts. *)

open Heap
open Manticore_gc
open Runtime
module Cause = Obs.Gc_cause
module Event = Obs.Event

let test_ring_overwrite () =
  let r = Obs.Ring.create ~capacity:8 in
  for i = 0 to 19 do
    Obs.Ring.push r ~t_ns:(float_of_int i) ~tag:1 ~a:i ~b:0 ~c:0
  done;
  Alcotest.(check int) "total" 20 (Obs.Ring.total r);
  Alcotest.(check int) "stored" 8 (Obs.Ring.stored r);
  Alcotest.(check int) "dropped" 12 (Obs.Ring.dropped r);
  let seen = ref [] in
  Obs.Ring.iter_oldest_first r (fun seq _ _ a _ _ -> seen := (seq, a) :: !seen);
  let seen = List.rev !seen in
  Alcotest.(check int) "surviving" 8 (List.length seen);
  List.iteri
    (fun i (seq, a) ->
      Alcotest.(check int) "sequence numbers are global" (12 + i) seq;
      Alcotest.(check int) "payload matches its sequence" (12 + i) a)
    seen

let test_cause_codec () =
  Alcotest.(check int) "codes are dense" Cause.n_codes
    (List.length Cause.all);
  List.iter
    (fun c ->
      Alcotest.(check bool) "of_code inverts code" true
        (Cause.of_code (Cause.code c) = Some c);
      Alcotest.(check bool) "of_string inverts to_string" true
        (Cause.of_string (Cause.to_string c) = Some c))
    Cause.all;
  Alcotest.(check bool) "bad code rejected" true (Cause.of_code 99 = None);
  Alcotest.(check bool) "bad name rejected" true (Cause.of_string "zap" = None)

let sample_events =
  [
    Event.Coll_begin { kind = Event.Minor; cause = Cause.Nursery_full };
    Event.Coll_end { kind = Event.Major; cause = Cause.To_space_low; bytes = 4096 };
    Event.Coll_end
      { kind = Event.Promotion;
        cause = Cause.Promotion Cause.Mut_store;
        bytes = 64 };
    Event.Coll_end { kind = Event.Global; cause = Cause.Global_threshold; bytes = 0 };
    Event.Chunk_acquire { node = 3; fresh = true };
    Event.Chunk_acquire { node = 0; fresh = false };
    Event.Chunk_release { node = 2 };
    Event.Steal_attempt { victim = 5 };
    Event.Steal_success { victim = 1 };
    Event.Global_phase { phase = Event.Cheney };
    Event.Alloc_sample { bytes = 128 };
    Event.Req_done { latency_ns = 1_234_567 };
  ]

let test_event_codec () =
  List.iter
    (fun ev ->
      let tag, a, b, c = Event.encode ev in
      (match Event.decode ~tag ~a ~b ~c with
      | Some ev' -> Alcotest.(check bool) "packed round-trip" true (ev = ev')
      | None -> Alcotest.fail "packed decode failed");
      match Event.of_strings (Event.to_strings ev) with
      | Ok ev' -> Alcotest.(check bool) "text round-trip" true (ev = ev')
      | Error m -> Alcotest.fail m)
    sample_events;
  Alcotest.(check bool) "bad tag rejected" true
    (Event.decode ~tag:99 ~a:0 ~b:0 ~c:0 = None);
  (match Event.of_strings [ "coll-end"; "zzz"; "nursery_full"; "1" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a bad kind");
  match Event.of_strings [ "no-such-event" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown event"

let test_recorder_dump_roundtrip () =
  let r =
    Obs.Recorder.create ~capacity:16 ~n_vprocs:2 ~n_nodes:2
      ~node_of_vproc:(fun v -> v mod 2)
      ()
  in
  List.iteri
    (fun i ev ->
      Obs.Recorder.record r ~vproc:(i mod 2)
        ~t_ns:(1000.25 +. float_of_int i)
        ev)
    sample_events;
  Obs.Recorder.record_copy r ~src_node:0 ~dst_node:1 ~bytes:640;
  Obs.Recorder.record_copy r ~src_node:1 ~dst_node:1 ~bytes:72;
  let text = Obs.Recorder.to_string r in
  match Obs.Recorder.of_string text with
  | Error m -> Alcotest.failf "dump did not parse: %s" m
  | Ok r2 ->
      Alcotest.(check int) "vprocs" 2 (Obs.Recorder.n_vprocs r2);
      Alcotest.(check int) "nodes" 2 (Obs.Recorder.n_nodes r2);
      for v = 0 to 1 do
        Alcotest.(check bool)
          (Printf.sprintf "vproc %d events survive" v)
          true
          (Obs.Recorder.events r ~vproc:v = Obs.Recorder.events r2 ~vproc:v)
      done;
      Alcotest.(check int) "matrix cell" 640
        (Obs.Recorder.matrix_get r2 ~src_node:0 ~dst_node:1);
      Alcotest.(check int) "matrix total" 712 (Obs.Recorder.matrix_total r2);
      Alcotest.(check string) "print/parse fixpoint" text
        (Obs.Recorder.to_string r2)

(* -- the always-on promises, on a real run --------------------------- *)

let run_workload () =
  let spec = Option.get (Workloads.Registry.find "synthetic") in
  let base =
    Harness.Run_config.default ~machine:Numa.Machines.tiny4 ~n_vprocs:2
  in
  let cfg =
    { base with
      Harness.Run_config.scale = 0.25;
      params =
        (* Tight enough that the small workload still collects. *)
        { base.Harness.Run_config.params with
          Params.local_heap_bytes = 32 * 1024;
          nursery_min_bytes = 4 * 1024 } }
  in
  Harness.Run_config.execute spec cfg

let coll_end_counts r =
  (* (minor, major, promotion, global, barrier) Coll_end events over all
     rings. *)
  let counts = Array.make 5 0 in
  for v = 0 to Obs.Recorder.n_vprocs r - 1 do
    Alcotest.(check int)
      (Printf.sprintf "vproc %d ring did not overwrite" v)
      0
      (Obs.Recorder.dropped r ~vproc:v);
    List.iter
      (fun (_, _, ev) ->
        match ev with
        | Event.Coll_end { kind; _ } ->
            let k =
              match kind with
              | Event.Minor -> 0
              | Event.Major -> 1
              | Event.Promotion -> 2
              | Event.Global -> 3
              | Event.Barrier -> 4
            in
            counts.(k) <- counts.(k) + 1
        | _ -> ())
      (Obs.Recorder.events r ~vproc:v)
  done;
  counts

let test_every_collection_attributed () =
  let o = run_workload () in
  let r = o.Harness.Run_config.obs in
  let counts = coll_end_counts r in
  let agg = Metrics.aggregate o.Harness.Run_config.metrics in
  let m kind = (Metrics.kind_stats agg kind).Metrics.pause_ns.Metrics.count in
  Alcotest.(check bool) "run collected" true (counts.(0) > 0);
  Alcotest.(check int) "minor events = minor pauses" (m Gc_trace.Minor)
    counts.(0);
  Alcotest.(check int) "major events = major pauses" (m Gc_trace.Major)
    counts.(1);
  Alcotest.(check int) "promotion events = promotion pauses"
    (m Gc_trace.Promotion) counts.(2);
  Alcotest.(check int) "global events = global pauses" (m Gc_trace.Global)
    counts.(3);
  (* The cause counters must cover every pause: 100% attribution. *)
  let snap = Metrics.snapshot o.Harness.Run_config.metrics in
  List.iter
    (fun (vs : Metrics.vproc_stats) ->
      let pauses =
        List.fold_left
          (fun acc k -> acc + (Metrics.kind_stats vs k).Metrics.pause_ns.Metrics.count)
          0
          [ Gc_trace.Minor; Gc_trace.Major; Gc_trace.Promotion; Gc_trace.Global ]
      in
      let attributed =
        List.fold_left (fun acc (_, n) -> acc + n) 0 vs.Metrics.causes
      in
      Alcotest.(check int)
        (Printf.sprintf "vproc %d: every pause has a cause" vs.Metrics.vproc)
        pauses attributed)
    snap.Metrics.vprocs

(* One traced server run with a tight global budget, so the run's
   collections include global ones under [mode]. *)
let traced_server_run mode =
  let spec = Option.get (Workloads.Registry.find "server") in
  let base =
    Harness.Run_config.default ~machine:Numa.Machines.amd48 ~n_vprocs:4
  in
  let params =
    { base.Harness.Run_config.params with
      Params.global_gc_mode = mode;
      global_budget_per_vproc = 20 * 1024 }
  in
  let ctx =
    Ctx.create ~params ~machine:Numa.Machines.amd48 ~n_vprocs:4
      ~policy:Sim_mem.Page_policy.Local ()
  in
  let rt = Sched.create ~seed:0x5eed ctx in
  Gc_trace.enable ctx.Ctx.trace;
  ignore (Workloads.Registry.run spec rt ~scale:4.);
  ctx

let test_sinks_agree () =
  let kinds =
    Gc_trace.[ Minor; Major; Promotion; Global; Barrier ]
  in
  List.iter
    (fun (label, mode) ->
      let ctx = traced_server_run mode in
      let r = ctx.Ctx.obs in
      let check_int what = Alcotest.(check int) (label ^ ": " ^ what) in
      Alcotest.(check bool) (label ^ ": globals ran") true
        (ctx.Ctx.stats.Gc_stats.global_count > 0);
      for v = 0 to Obs.Recorder.n_vprocs r - 1 do
        check_int (Printf.sprintf "vproc %d ring did not overwrite" v) 0
          (Obs.Recorder.dropped r ~vproc:v)
      done;
      let live = Gc_trace.events ctx.Ctx.trace in
      let rebuilt, orphans = Gc_trace.of_recorder r in
      check_int "no orphans" 0 orphans;
      (* A batched promotion's span is deliberately its accrued copy
         time, ending at the publish, not the wall time since its first
         add (the quiet gaps between adds are mutator work): its live
         start may only lie at or after the recorded one. *)
      let batched (e : Gc_trace.event) =
        match e.Gc_trace.cause with
        | Obs.Gc_cause.Promotion_batched _ -> true
        | _ -> false
      in
      let key (e : Gc_trace.event) =
        if batched e then { e with Gc_trace.t_start_ns = 0. } else e
      in
      let pairs l =
        List.sort compare
          (List.map (fun e -> (key e, e.Gc_trace.t_start_ns)) l)
      in
      let lp = pairs live and rp = pairs (Gc_trace.events rebuilt) in
      Alcotest.(check bool)
        (label ^ ": live trace = spans rebuilt from the recorder")
        true
        (List.map fst lp = List.map fst rp);
      List.iter2
        (fun (_, t_live) (_, t_rec) ->
          Alcotest.(check bool)
            (label ^ ": no span starts before its Coll_begin")
            true (t_live >= t_rec))
        lp rp;
      (* Metrics per kind = the trace per kind, in counts and bytes. *)
      let agg = Metrics.aggregate ctx.Ctx.metrics in
      List.iter
        (fun k ->
          let evs = List.filter (fun e -> e.Gc_trace.kind = k) live in
          let ks = Metrics.kind_stats agg k in
          let name = Gc_trace.kind_to_string k in
          check_int (name ^ " count: metrics = trace") (List.length evs)
            ks.Metrics.pause_ns.Metrics.count;
          check_int (name ^ " bytes: metrics = trace")
            (List.fold_left (fun a e -> a + e.Gc_trace.bytes) 0 evs)
            (int_of_float ks.Metrics.copied_bytes.Metrics.sum))
        kinds;
      (* Per-vproc metrics chunk acquires = the ring's Chunk_acquire
         events. *)
      let snap = Metrics.snapshot ctx.Ctx.metrics in
      List.iter
        (fun (vs : Metrics.vproc_stats) ->
          let ring =
            List.length
              (List.filter
                 (fun (_, _, ev) ->
                   match ev with Event.Chunk_acquire _ -> true | _ -> false)
                 (Obs.Recorder.events r ~vproc:vs.Metrics.vproc))
          in
          check_int
            (Printf.sprintf "vproc %d chunk acquires: metrics = ring"
               vs.Metrics.vproc)
            ring vs.Metrics.chunk_acquires)
        snap.Metrics.vprocs;
      (* The context's global tally = the vprocs' Global spans. *)
      check_int "global bytes: context stats = metrics"
        ctx.Ctx.stats.Gc_stats.global_copied_bytes
        (Metrics.kind_bytes agg Gc_trace.Global))
    [ ("stw", Params.Stw); ("concurrent", Params.Concurrent) ]

let test_matrix_matches_copied_bytes () =
  (* Exact-byte cross-check: the NUMA traffic matrix total must equal
     the sum of every vproc's copied-byte totals across all collection
     kinds — the matrix is fed from the same evacuation copies the pause
     telemetry charges. *)
  let o = run_workload () in
  let r = o.Harness.Run_config.obs in
  let snap = Metrics.snapshot o.Harness.Run_config.metrics in
  let copied =
    List.fold_left
      (fun acc (vs : Metrics.vproc_stats) ->
        List.fold_left
          (fun acc k ->
            acc
            + int_of_float
                (Metrics.kind_stats vs k).Metrics.copied_bytes.Metrics.sum)
          acc
          [ Gc_trace.Minor; Gc_trace.Major; Gc_trace.Promotion; Gc_trace.Global ])
      0 snap.Metrics.vprocs
  in
  Alcotest.(check bool) "bytes were copied" true (copied > 0);
  Alcotest.(check int) "matrix total = copied bytes" copied
    (Obs.Recorder.matrix_total r);
  let n = Obs.Recorder.n_nodes r in
  let cells = ref 0 in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      cells := !cells + Obs.Recorder.matrix_get r ~src_node:s ~dst_node:d
    done
  done;
  Alcotest.(check int) "cells sum to the total" copied !cells

let test_batched_promotion_matrix_reconciles () =
  (* The batched promotion path feeds the same per-copy obs recording
     as singleton promotion: after a steal/message-heavy scheduler run
     (write buffers on — the default) the NUMA matrix total still
     equals the copied-byte telemetry across all kinds. *)
  let rt = Test_sched.mk_rt ~n_vprocs:4 () in
  let c = Sched.ctx rt in
  ignore
    (Sched.run rt ~main:(fun m ->
         let ch = Sched.new_channel rt m in
         let consumers =
           List.init 3 (fun _ ->
               Sched.spawn rt m ~env:[||] (fun m' _ ->
                   let s = ref 0 in
                   for _ = 1 to 8 do
                     let v = Sched.recv rt m' ch in
                     s :=
                       !s + List.fold_left ( + ) 0 (Gc_util.read_list c m' v)
                   done;
                   Value.of_int !s))
         in
         Sched.yield rt m;
         for i = 1 to 24 do
           Sched.send rt m ch (Gc_util.build_list c m [ i; i + 1 ])
         done;
         List.iter (fun f -> ignore (Sched.await rt m f)) consumers;
         Value.unit));
  let snap = Metrics.snapshot c.Ctx.metrics in
  let copied_kind k =
    List.fold_left
      (fun acc (vs : Metrics.vproc_stats) ->
        acc
        + int_of_float
            (Metrics.kind_stats vs k).Metrics.copied_bytes.Metrics.sum)
      0 snap.Metrics.vprocs
  in
  let copied_all =
    List.fold_left
      (fun acc k -> acc + copied_kind k)
      0
      [ Gc_trace.Minor; Gc_trace.Major; Gc_trace.Promotion; Gc_trace.Global ]
  in
  Alcotest.(check bool) "promotions happened" true
    (copied_kind Gc_trace.Promotion > 0);
  Alcotest.(check bool) "batched promotions happened" true
    (Array.exists
       (fun (mu : Ctx.mutator) ->
         mu.Ctx.stats.Gc_stats.promote_batched_values > 0)
       c.Ctx.muts);
  Alcotest.(check int) "matrix total = all copied bytes" copied_all
    (Obs.Recorder.matrix_total c.Ctx.obs)

let test_failed_steals_counted () =
  (* Steal-attempt exactness: an executed hunt pays one attempt per
     deque it probes — the empty ones on the way plus the victim — and
     nothing is recorded for the speculative hunts the scheduler's
     move selection re-runs every decision without any state change.
     A fan-out where every item starts on vproc 0 makes the three
     thieves' hunts walk over each other's empty deques, so executed
     failed probes must outnumber successes, and the flight recorder
     and the metrics counters must agree event for event. *)
  let rt = Test_sched.mk_rt ~n_vprocs:4 () in
  let c = Sched.ctx rt in
  ignore
    (Sched.run rt ~main:(fun m ->
         let futs =
           List.init 32 (fun _ ->
               Sched.spawn rt m ~env:[||] (fun m' _ ->
                   Ctx.charge_work c m' ~cycles:1_000_000.;
                   Sched.yield rt m';
                   Value.of_int 1))
         in
         List.iter (fun f -> ignore (Sched.await rt m f)) futs;
         Value.unit));
  let agg = Metrics.aggregate c.Ctx.metrics in
  Alcotest.(check bool) "steals happened" true (agg.Metrics.steal_successes > 0);
  Alcotest.(check bool) "failed probes counted as attempts" true
    (agg.Metrics.steal_attempts > agg.Metrics.steal_successes);
  let ring_attempts = ref 0 and ring_successes = ref 0 in
  for v = 0 to Obs.Recorder.n_vprocs c.Ctx.obs - 1 do
    Alcotest.(check int)
      (Printf.sprintf "vproc %d ring did not overwrite" v)
      0
      (Obs.Recorder.dropped c.Ctx.obs ~vproc:v);
    List.iter
      (fun (_, _, ev) ->
        match ev with
        | Event.Steal_attempt _ -> incr ring_attempts
        | Event.Steal_success _ -> incr ring_successes
        | _ -> ())
      (Obs.Recorder.events c.Ctx.obs ~vproc:v)
  done;
  Alcotest.(check int) "ring attempts = metrics attempts"
    agg.Metrics.steal_attempts !ring_attempts;
  Alcotest.(check int) "ring successes = metrics successes"
    agg.Metrics.steal_successes !ring_successes

let test_disabled_recorder_is_silent () =
  let o =
    let spec = Option.get (Workloads.Registry.find "synthetic") in
    let base =
      Harness.Run_config.default ~machine:Numa.Machines.tiny4 ~n_vprocs:2
    in
    Harness.Run_config.execute spec
      { base with Harness.Run_config.scale = 0.25; obs_enabled = false }
  in
  let r = o.Harness.Run_config.obs in
  let total = ref (Obs.Recorder.matrix_total r) in
  for v = 0 to Obs.Recorder.n_vprocs r - 1 do
    total := !total + List.length (Obs.Recorder.events r ~vproc:v)
  done;
  Alcotest.(check int) "nothing recorded when disabled" 0 !total

let suite =
  ( "obs",
    [
      Alcotest.test_case "ring overwrites oldest first" `Quick
        test_ring_overwrite;
      Alcotest.test_case "cause codec round-trips" `Quick test_cause_codec;
      Alcotest.test_case "event codec round-trips" `Quick test_event_codec;
      Alcotest.test_case "recorder dump round-trips" `Quick
        test_recorder_dump_roundtrip;
      Alcotest.test_case "every collection attributed" `Quick
        test_every_collection_attributed;
      Alcotest.test_case "live trace, recorder, metrics and stats agree"
        `Quick test_sinks_agree;
      Alcotest.test_case "traffic matrix = copied bytes" `Quick
        test_matrix_matches_copied_bytes;
      Alcotest.test_case "batched promotion reconciles with the matrix" `Quick
        test_batched_promotion_matrix_reconciles;
      Alcotest.test_case "failed steals count as attempts" `Quick
        test_failed_steals_counted;
      Alcotest.test_case "disabled recorder records nothing" `Quick
        test_disabled_recorder_is_silent;
    ] )
