(* Tests of the repository benchmark's own logic: exact percentiles,
   arrival timing, the virtual-time decomposition, and repeatability. *)

open Bench_e2e

(* A pass small enough for the test suite: two paper programs on 4
   vprocs and the least server load whose p99.9 is reportable. *)
let small : Workload.size =
  {
    Workload.paper = { Paper.programs = [ ("dmm", 0.25); ("smvm", 0.25) ]; vprocs = 4 };
    server =
      {
        Service.figure with
        Service.n_requests = 10_000;
        n_sessions = 4;
        n_vprocs = 4;
        ballast_rotations = 40;
        rearm_every = 2_500;
      };
  }

let stw = Option.get (Workload.find "amd48-stw")

let test_percentile_ranks () =
  let sample n = Array.init n (fun i -> float_of_int (i + 1)) in
  let get a q =
    match Stats.percentile a q with Ok x -> x | Error e -> Alcotest.fail e
  in
  let a = sample 10_000 in
  Alcotest.(check (float 0.)) "p50 of 1..10000" 5_000. (get a Stats.p50);
  Alcotest.(check (float 0.)) "p99 of 1..10000" 9_900. (get a Stats.p99);
  Alcotest.(check (float 0.)) "p99.9 of 1..10000" 9_990. (get a Stats.p999);
  Alcotest.(check int) "ten samples beyond p99.9" 10 (Stats.beyond ~n:10_000 Stats.p999);
  Alcotest.(check (float 0.)) "p50 of an odd sample" 50. (get (sample 99) Stats.p50);
  Alcotest.(check bool) "p99.9 of 9999 has only 9 beyond" true
    (Result.is_error (Stats.percentile (sample 9_999) Stats.p999));
  Alcotest.(check bool) "p99 of 999 has only 9 beyond" true
    (Result.is_error (Stats.percentile (sample 999) Stats.p99));
  Alcotest.(check bool) "empty sample" true
    (Result.is_error (Stats.percentile [||] Stats.p50))

let test_sum_of_minima () =
  (* Each call's fastest time counts, whichever pass it came from. *)
  Alcotest.(check (float 1e-12)) "per-call minima" 6.
    (Stats.sum_of_minima [ [ 1.; 5.; 3. ]; [ 4.; 2.; 9. ]; [ 2.; 2.; 3. ] ]);
  Alcotest.(check (float 0.)) "one pass" 7. (Stats.sum_of_minima [ [ 3.; 4. ] ])

let test_first_request_due_at_start () =
  let size = { small.Workload.server with Service.n_requests = 200 } in
  let plan =
    Workloads.Server.arrival_plan (Service.load size ~arrival_seed:7)
  in
  Alcotest.(check bool) "the plan itself starts after 0" true (plan.(0) > 0.);
  let s = Service.setup size ~mode:Manticore_gc.Params.Stw ~seed:7 in
  let r = Service.serve size s ~arrival_seed:7 in
  Alcotest.(check bool) "service starts after the ballast build" true
    (r.Service.start_ns > 0.);
  Alcotest.(check (float 0.)) "first request due at service start"
    r.Service.start_ns r.Service.due_ns.(0);
  Alcotest.(check (float 1e-6)) "later requests keep the plan's gaps"
    (plan.(5) -. plan.(0))
    (r.Service.due_ns.(5) -. r.Service.start_ns);
  Alcotest.(check int) "every request answered correctly" 0 r.Service.failed;
  Alcotest.(check bool) "checksum" true r.Service.checksum_ok

let test_exclusive_nesting () =
  (* A global span holding a major (holding a minor) and a barrier wait;
     everything outside [2, 20] is clipped. *)
  let k = Layers.kind_ix in
  let spans =
    Manticore_gc.Gc_trace.
      [ (0., 20., k Global); (3., 9., k Major); (4., 6., k Minor);
        (15., 18., k Barrier); (25., 30., k Minor) ]
  in
  let x = Layers.exclusive ~lo:2. ~hi:20. spans in
  Alcotest.(check (array (float 1e-12))) "innermost span wins"
    [| 2.; 4.; 0.; 9.; 3. |] x

let test_decomposition_sums () =
  let p = Workload.run_pass ~layers:true small stw ~seed:3 ~arrival_seed:3 in
  let l = Option.get p.Workload.layers in
  List.iter
    (fun (bound, l) ->
      let parts = Layers.parts l in
      let sum =
        List.fold_left
          (fun acc (name, v) -> if name = "whole" then acc else acc +. v)
          0. parts
      in
      let whole = List.assoc "whole" parts in
      Alcotest.(check bool) "whole is positive" true (whole > 0.);
      Alcotest.(check (float (1e-9 *. whole))) "parts plus remainder = whole" whole sum;
      List.iter
        (fun (name, v) ->
          if name <> "unattributed" then
            Alcotest.(check bool) (name ^ " is not negative") true (v >= 0.))
        parts;
      Option.iter
        (fun b ->
          Alcotest.(check bool) "paper remainder within its bound" true
            (Float.abs (List.assoc "unattributed" parts) <= b *. whole))
        bound;
      Alcotest.(check bool) "check passes" true
        (Result.is_ok (Layers.decomposition_ok ?bound l)))
    [ (Some Workload.paper_unattributed_bound, l.Workload.paper.Paper.baseline);
      (Some Workload.paper_unattributed_bound, l.Workload.paper.Paper.parallel);
      (None, l.Workload.server) ];
  Alcotest.(check (list string)) "no failed checks" [] p.Workload.errors

let test_decomposition_bound_fails () =
  (* A whole of 100 ns with 60 ns of parts leaves 40 ns unattributed:
     reported without a bound, a failure with one. *)
  let l = Layers.create () in
  l.Layers.whole_ns <- 100.;
  l.Layers.mutator_ns <- 50.;
  l.Layers.idle_ns <- 10.;
  Alcotest.(check (float 1e-12)) "remainder" 40. (Layers.unattributed_ns l);
  Alcotest.(check bool) "no bound: reported only" true
    (Result.is_ok (Layers.decomposition_ok l));
  Alcotest.(check bool) "beyond the bound: fails" true
    (Result.is_error (Layers.decomposition_ok ~bound:0.1 l));
  Alcotest.(check bool) "within the bound: passes" true
    (Result.is_ok (Layers.decomposition_ok ~bound:0.5 l))

let test_repeatable () =
  let a = Workload.run_pass small stw ~seed:5 ~arrival_seed:9 in
  let b = Workload.run_pass small stw ~seed:5 ~arrival_seed:9 in
  Alcotest.(check bool) "identical virtual metrics" true (Workload.same_virt a b);
  Alcotest.(check bool) "host words agree" true (Workload.same_words a b);
  Alcotest.(check bool) "a timed pass takes no layer readings" true
    (Option.is_none a.Workload.layers);
  let traced = Workload.run_pass ~layers:true small stw ~seed:5 ~arrival_seed:9 in
  Alcotest.(check bool) "layer readings leave virtual time alone" true
    (Workload.same_virt a traced);
  let c = Workload.run_pass small stw ~seed:6 ~arrival_seed:9 in
  Alcotest.(check bool) "another scheduler seed moves them" false
    (Workload.same_virt a c)

let test_setup_pass () =
  let before = Workload.run_pass small stw ~seed:5 ~arrival_seed:9 in
  Alcotest.(check bool) "takes time" true (Workload.setup_pass small stw ~seed:5 > 0.);
  let after = Workload.run_pass small stw ~seed:5 ~arrival_seed:9 in
  Alcotest.(check bool) "leaves the next pass's virtual metrics alone" true
    (Workload.same_virt before after)

let () =
  Alcotest.run "bench_e2e"
    [
      ( "stats",
        [ Alcotest.test_case "exact percentile ranks" `Quick test_percentile_ranks;
          Alcotest.test_case "sum of per-call minima" `Quick test_sum_of_minima ] );
      ( "service",
        [ Alcotest.test_case "first request due at service start" `Quick
            test_first_request_due_at_start ] );
      ( "layers",
        [ Alcotest.test_case "exclusive nesting" `Quick test_exclusive_nesting;
          Alcotest.test_case "decomposition sums" `Quick test_decomposition_sums;
          Alcotest.test_case "decomposition bound fails" `Quick
            test_decomposition_bound_fails ] );
      ( "workload",
        [ Alcotest.test_case "two passes repeat" `Quick test_repeatable;
          Alcotest.test_case "set-up-only pass" `Quick test_setup_pass ] );
    ]
