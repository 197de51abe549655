(* The cost model: NUMA orderings, caching effects, capacity scaling,
   and an LRU-model property for the cache. *)

open Numa

let mk ?(cap_scale = 1.) ?(machine = Machines.amd48) ?(n_vprocs = 4) () =
  Cost_model.create ~cap_scale machine ~n_vprocs ~vproc_node:(fun v -> v mod 2)

let cold_access cm ~vproc ~dst addr =
  (Cost_model.access cm ~vproc ~dst_node:dst ~addr ~bytes:8 ~now_ns:0.).ns

let test_numa_ordering () =
  (* A cold miss costs local < same-package < cross-package on AMD. *)
  let cm = mk () in
  (* vproc 0 is on node 0. *)
  let local = cold_access cm ~vproc:0 ~dst:0 0x10000 in
  let same_pkg = cold_access cm ~vproc:0 ~dst:1 0x20000 in
  let cross = cold_access cm ~vproc:0 ~dst:5 0x30000 in
  Alcotest.(check bool)
    (Printf.sprintf "local %.1f < same pkg %.1f" local same_pkg)
    true (local < same_pkg);
  Alcotest.(check bool)
    (Printf.sprintf "same pkg %.1f < cross %.1f" same_pkg cross)
    true (same_pkg < cross)

let test_cache_hit_cheaper () =
  let cm = mk () in
  let miss = cold_access cm ~vproc:0 ~dst:0 0x40000 in
  let hit = cold_access cm ~vproc:0 ~dst:0 0x40000 in
  Alcotest.(check bool)
    (Printf.sprintf "hit %.2f << miss %.2f" hit miss)
    true
    (hit < miss /. 4.)

let test_l3_shared_within_node () =
  (* vprocs 0 and 2 share node 0: vproc 2 gets an L3 hit on a line that
     vproc 0 pulled in (cheaper than vproc 1's pull from node 1). *)
  let cm = mk () in
  ignore (cold_access cm ~vproc:0 ~dst:0 0x50000);
  let sibling = cold_access cm ~vproc:2 ~dst:0 0x50000 in
  let stranger = cold_access cm ~vproc:1 ~dst:0 0x51000 in
  Alcotest.(check bool)
    (Printf.sprintf "L3 sibling hit %.2f < remote pull %.2f" sibling stranger)
    true (sibling < stranger)

let test_work_is_ghz_scaled () =
  let ctx = Gc_util.mk_ctx ~machine:Machines.amd48 () in
  let m = Manticore_gc.Ctx.mutator ctx 0 in
  let t0 = m.Manticore_gc.Ctx.now_ns in
  Manticore_gc.Ctx.charge_work ctx m ~cycles:100.;
  Alcotest.(check (float 1e-9)) "cycles / GHz" (100. /. 2.1)
    (m.Manticore_gc.Ctx.now_ns -. t0)

let test_cap_scale_preserves_uncontended () =
  (* Scaling capacity must not change an isolated access's cost. *)
  let a = cold_access (mk ()) ~vproc:0 ~dst:5 0x60000 in
  let b = cold_access (mk ~cap_scale:32. ()) ~vproc:0 ~dst:5 0x60000 in
  Alcotest.(check (float 1e-9)) "same uncontended cost" a b

let test_cap_scale_saturates_sooner () =
  let flood cm =
    let total = ref 0. in
    for i = 0 to 5000 do
      total :=
        !total
        +. (Cost_model.bulk cm ~vproc:0 ~dst_node:5 ~addr:(0x100000 + (i * 64))
              ~bytes:64 ~now_ns:!total)
             .ns
    done;
    !total
  in
  let t1 = flood (mk ()) in
  let t32 = flood (mk ~cap_scale:32. ()) in
  Alcotest.(check bool)
    (Printf.sprintf "scaled capacity saturates (%.0f vs %.0f ns)" t32 t1)
    true (t32 > 2. *. t1)

let test_bank_accounting () =
  let cm = mk () in
  ignore (cold_access cm ~vproc:0 ~dst:3 0x70000);
  Alcotest.(check bool) "bytes counted on the bank" true
    (Cost_model.bank_total_bytes cm ~node:3 >= 64.)

(* LRU model: the 4-way cache must match a reference implementation. *)
let prop_cache_lru_model =
  QCheck.Test.make ~name:"cache matches 4-way LRU model" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 400) (int_bound 63))
    (fun lines ->
      let c = Cache.create ~size_kb:1 ~line_bytes:64 in
      (* 1KB 4-way with 64B lines -> 4 sets; model each set as an LRU
         list of at most 4 line ids. *)
      let n_sets = 4 in
      let model = Array.make n_sets [] in
      List.for_all
        (fun line ->
          let addr = line * 64 in
          let set = line mod n_sets in
          let hit_model = List.mem line model.(set) in
          let hit = Cache.access c addr in
          (* update model *)
          let without = List.filter (fun l -> l <> line) model.(set) in
          model.(set) <- line :: (if List.length without > 3 then List.filteri (fun i _ -> i < 3) without else without);
          hit = hit_model)
        lines)

let suite =
  ( "cost-model",
    [
      Alcotest.test_case "NUMA cost ordering" `Quick test_numa_ordering;
      Alcotest.test_case "cache hits are cheap" `Quick test_cache_hit_cheaper;
      Alcotest.test_case "L3 shared within a node" `Quick test_l3_shared_within_node;
      Alcotest.test_case "work scaled by GHz" `Quick test_work_is_ghz_scaled;
      Alcotest.test_case "cap_scale: uncontended cost unchanged" `Quick
        test_cap_scale_preserves_uncontended;
      Alcotest.test_case "cap_scale: saturates sooner" `Quick
        test_cap_scale_saturates_sooner;
      Alcotest.test_case "bank byte accounting" `Quick test_bank_accounting;
      QCheck_alcotest.to_alcotest prop_cache_lru_model;
    ] )
