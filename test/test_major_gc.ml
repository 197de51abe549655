(* Major collection (Figure 3): older old data is copied to the vproc's
   global chunk; young data stays local and slides to the heap bottom. *)

open Heap
open Manticore_gc

(* Two minors age data: after the first the data is young; after the
   second it is old (young becomes empty if nothing new allocated). *)
let age_twice ctx m =
  Minor_gc.run ctx m;
  Minor_gc.run ctx m

let test_major_moves_old_to_global () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Gc_util.build_list ctx m [ 1; 2; 3 ] in
  let cell = Roots.add m.Ctx.roots v in
  let before = Gc_util.snapshot ctx v in
  age_twice ctx m;
  Alcotest.(check bool) "old before major" true
    (Local_heap.in_old m.Ctx.lh (Value.to_ptr (Roots.get cell)));
  Major_gc.run ctx m;
  let v' = Roots.get cell in
  Alcotest.(check bool) "left the local heap" false (Gc_util.in_local m v');
  Alcotest.(check bool) "in a global chunk" true
    (Global_heap.contains ctx.Ctx.global (Value.to_ptr v'));
  Alcotest.check Gc_util.snap "structure preserved" before (Gc_util.snapshot ctx v');
  Gc_util.assert_invariants ctx

let test_major_keeps_young_local () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  (* Old data: aged through two minors. *)
  let old_v = Gc_util.build_list ctx m [ 1 ] in
  let old_cell = Roots.add m.Ctx.roots old_v in
  age_twice ctx m;
  (* Young data: copied by exactly one minor. *)
  let young_v = Gc_util.build_list ctx m [ 2 ] in
  let young_cell = Roots.add m.Ctx.roots young_v in
  Minor_gc.run ctx m;
  Alcotest.(check bool) "young is young" true
    (Local_heap.in_young m.Ctx.lh (Value.to_ptr (Roots.get young_cell)));
  Major_gc.run ctx m;
  Alcotest.(check bool) "old promoted to global" false
    (Gc_util.in_local m (Roots.get old_cell));
  let y = Roots.get young_cell in
  Alcotest.(check bool) "young stayed local" true (Gc_util.in_local m y);
  (* The slide: young data now sits at the bottom of the heap. *)
  Alcotest.(check int) "young at base" m.Ctx.lh.Local_heap.base (Value.to_ptr y);
  Alcotest.(check (list int)) "young readable" [ 2 ] (Gc_util.read_list ctx m y);
  Alcotest.(check (list int)) "old readable" [ 1 ]
    (Gc_util.read_list ctx m (Roots.get old_cell));
  Gc_util.assert_invariants ctx

let test_major_young_to_old_pointers () =
  (* A young object pointing at an old object: the old target moves to the
     global heap and the young field must follow it. *)
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let old_v = Gc_util.build_list ctx m [ 42 ] in
  let old_cell = Roots.add m.Ctx.roots old_v in
  age_twice ctx m;
  let young_v = Alloc.alloc_vector ctx m [| Value.of_int 0; Roots.get old_cell |] in
  let young_cell = Roots.add m.Ctx.roots young_v in
  Minor_gc.run ctx m;
  Major_gc.run ctx m;
  let y = Roots.get young_cell in
  Alcotest.(check bool) "young local" true (Gc_util.in_local m y);
  let target = Ctx.get_field ctx m (Value.to_ptr y) 1 in
  Alcotest.(check bool) "field followed old data to global" true
    (Global_heap.contains ctx.Ctx.global (Value.to_ptr target));
  Alcotest.(check (list int)) "target readable" [ 42 ]
    (Gc_util.read_list ctx m target);
  Gc_util.assert_invariants ctx

let test_major_reclaims_dead_old () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  (* Aged garbage plus one live value. *)
  let garbage = Gc_util.build_list ctx m [ 9; 9; 9; 9; 9; 9 ] in
  let gcell = Roots.add m.Ctx.roots garbage in
  let live = Gc_util.build_list ctx m [ 5 ] in
  let lcell = Roots.add m.Ctx.roots live in
  age_twice ctx m;
  Roots.remove m.Ctx.roots gcell;
  let copied_before = Gc_util.copied ctx m Gc_trace.Major in
  Major_gc.run ctx m;
  let copied = Gc_util.copied ctx m Gc_trace.Major - copied_before in
  (* Only the single live cons cell (24 bytes) goes to the global heap. *)
  Alcotest.(check int) "only live copied" 24 copied;
  Alcotest.(check (list int)) "live readable" [ 5 ]
    (Gc_util.read_list ctx m (Roots.get lcell));
  Gc_util.assert_invariants ctx

let test_major_empty_old_noop () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Gc_util.build_list ctx m [ 1 ] in
  let cell = Roots.add m.Ctx.roots v in
  Minor_gc.run ctx m;
  (* Everything is young: the major copies nothing. *)
  Major_gc.run ctx m;
  Alcotest.(check int) "nothing copied" 0 (Gc_util.copied ctx m Gc_trace.Major);
  Alcotest.(check bool) "still local" true (Gc_util.in_local m (Roots.get cell));
  Gc_util.assert_invariants ctx

let test_major_triggered_by_threshold () =
  (* Sustained allocation with a large live set eventually shrinks the
     nursery below the threshold and forces majors. *)
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let head = Roots.add m.Ctx.roots (Value.of_int 0) in
  for i = 1 to 2000 do
    Roots.set head (Alloc.alloc_vector ctx m [| Value.of_int i; Roots.get head |])
  done;
  Alcotest.(check bool) "majors ran" true (Gc_util.count ctx m Gc_trace.Major > 0);
  Alcotest.(check int) "all data reachable" 2000
    (List.length (Gc_util.read_list ctx m (Roots.get head)));
  Gc_util.assert_invariants ctx

let test_major_updates_proxy_referent () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Gc_util.build_list ctx m [ 3 ] in
  let paddr, _ = Gc_util.make_proxy ctx m v in
  age_twice ctx m;
  Major_gc.run ctx m;
  let r = Proxy.referent ctx.Ctx.store paddr in
  Alcotest.(check bool) "referent now global" true
    (Global_heap.contains ctx.Ctx.global (Value.to_ptr r));
  Alcotest.(check (list int)) "readable" [ 3 ] (Gc_util.read_list ctx m r);
  Gc_util.assert_invariants ctx

let prop_major_preserves_random_trees =
  QCheck.Test.make ~name:"minor+major preserve random trees" ~count:40
    QCheck.(pair (int_range 0 6) (int_range 1 1000))
    (fun (depth, seed) ->
      let ctx = Gc_util.mk_ctx () in
      let m = Ctx.mutator ctx 0 in
      let v = Gc_util.build_tree ctx m depth seed in
      let before = Gc_util.snapshot ctx v in
      let cell = Roots.add m.Ctx.roots v in
      Minor_gc.run ctx m;
      Major_gc.run ctx m;
      Minor_gc.run ctx m;
      Major_gc.run ctx m;
      Gc_util.snapshot ctx (Roots.get cell) = before
      && Result.is_ok (Ctx.check_invariants ctx))

let suite =
  ( "major_gc",
    [
      Alcotest.test_case "moves old data to global chunk" `Quick
        test_major_moves_old_to_global;
      Alcotest.test_case "keeps young data local (slide)" `Quick
        test_major_keeps_young_local;
      Alcotest.test_case "young->old pointers follow" `Quick
        test_major_young_to_old_pointers;
      Alcotest.test_case "reclaims dead old data" `Quick test_major_reclaims_dead_old;
      Alcotest.test_case "empty old area is a no-op" `Quick test_major_empty_old_noop;
      Alcotest.test_case "triggered by nursery threshold" `Quick
        test_major_triggered_by_threshold;
      Alcotest.test_case "updates proxy referent" `Quick test_major_updates_proxy_referent;
      QCheck_alcotest.to_alcotest prop_major_preserves_random_trees;
    ] )
