(* The ablation switches must stay correct when disabled — same results,
   different traffic. *)

open Heap
open Manticore_gc
open Runtime

let base_params = Gc_util.small_params

let run_quicksort ?(params = base_params) ?(eager = false) () =
  let ctx =
    Ctx.create ~params ~machine:Numa.Machines.amd48 ~n_vprocs:4
      ~policy:Sim_mem.Page_policy.Local ()
  in
  let rt = Sched.create ~eager_promotion:eager ctx in
  let spec = Option.get (Workloads.Registry.find "quicksort") in
  let v = Workloads.Registry.run spec rt ~scale:0.1 in
  (match Ctx.check_invariants ctx with
  | Ok _ -> ()
  | Error errs -> Alcotest.failf "invariants: %s" (String.concat "; " errs));
  (v, ctx, rt)

let test_no_affinity_correct () =
  let v0, _, _ = run_quicksort () in
  let v1, _, _ =
    run_quicksort ~params:{ base_params with Params.chunk_affinity = false } ()
  in
  Alcotest.(check (float 1e-9)) "same checksum" v0 v1

let test_no_young_exclusion_correct () =
  let v0, _, _ = run_quicksort () in
  let v1, _, _ =
    run_quicksort ~params:{ base_params with Params.young_exclusion = false } ()
  in
  Alcotest.(check (float 1e-9)) "same checksum" v0 v1

let test_eager_promotion_correct () =
  let v0, _, _ = run_quicksort () in
  let v1, _, rt1 = run_quicksort ~eager:true () in
  Alcotest.(check (float 1e-9)) "same checksum" v0 v1;
  Alcotest.(check bool) "spawning promoted" true
    ((Sched.stats rt1).Sched.spawns > 0)

let test_young_exclusion_reduces_promotion () =
  (* Without young exclusion, the last minor's survivors are shipped to
     the global heap prematurely: major traffic must rise. *)
  let major_bytes params =
    let ctx =
      Ctx.create ~params ~machine:Numa.Machines.tiny4 ~n_vprocs:1
        ~policy:Sim_mem.Page_policy.Local ()
    in
    Global_gc.install_sync_hook ctx;
    let m = Ctx.mutator ctx 0 in
    let head = Roots.add m.Ctx.roots (Value.of_int 0) in
    for i = 1 to 2000 do
      Roots.set head (Alloc.alloc_vector ctx m [| Value.of_int i; Roots.get head |])
    done;
    Gc_util.copied ctx m Gc_trace.Major
  in
  let keep = major_bytes base_params in
  let no_keep = major_bytes { base_params with Params.young_exclusion = false } in
  Alcotest.(check bool)
    (Printf.sprintf "more major traffic without exclusion (%d vs %d)" no_keep keep)
    true (no_keep > keep)

let test_no_affinity_mixes_nodes () =
  (* With affinity off, a node reusing chunks can be handed another
     node's memory. *)
  let mk affinity =
    let ctx =
      Ctx.create
        ~params:{ base_params with Params.chunk_affinity = affinity }
        ~machine:Numa.Machines.tiny4 ~n_vprocs:2
        ~policy:Sim_mem.Page_policy.Local ()
    in
    Global_gc.install_sync_hook ctx;
    ctx
  in
  (* Fill and release chunks from vproc 1's node, then acquire from
     vproc 0: with affinity the pool must prefer node-0 chunks (here:
     fresh allocation); without, it grabs the foreign free chunk. *)
  let probe affinity =
    let ctx = mk affinity in
    let m1 = Ctx.mutator ctx 1 in
    for i = 0 to 200 do
      ignore (Promote.value ctx m1 (Alloc.alloc_vector ctx m1 [| Value.of_int i |]))
    done;
    Global_gc.run ctx;
    (* vproc 0 promotes next; whose chunks does it get? *)
    let m0 = Ctx.mutator ctx 0 in
    let g = Promote.value ctx m0 (Alloc.alloc_vector ctx m0 [| Value.of_int 1 |]) in
    Sim_mem.Memory.node_of_addr ctx.Ctx.store.Store.mem (Value.to_ptr g)
  in
  Alcotest.(check int) "affinity keeps vproc0 on node0" (Ctx.mutator (mk true) 0).Ctx.node
    (probe true);
  (* Without affinity the result may or may not be local; just assert the
     run stays sound. *)
  ignore (probe false)

let suite =
  ( "ablations",
    [
      Alcotest.test_case "no-affinity is correct" `Quick test_no_affinity_correct;
      Alcotest.test_case "no-young-exclusion is correct" `Quick
        test_no_young_exclusion_correct;
      Alcotest.test_case "eager promotion is correct" `Quick
        test_eager_promotion_correct;
      Alcotest.test_case "young exclusion avoids premature promotion" `Quick
        test_young_exclusion_reduces_promotion;
      Alcotest.test_case "affinity preference" `Quick test_no_affinity_mixes_nodes;
    ] )
