(* Minor collection (Figure 2): live nursery data moves to the old area,
   garbage is reclaimed, the free space is re-split, and the copied data
   becomes the young partition. *)

open Heap
open Manticore_gc

let test_alloc_and_read () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Gc_util.build_list ctx m [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Gc_util.read_list ctx m v);
  Gc_util.assert_invariants ctx

let test_minor_preserves_live () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Gc_util.build_list ctx m [ 10; 20; 30; 40 ] in
  let before = Gc_util.snapshot ctx v in
  let cell = Roots.add m.Ctx.roots v in
  Minor_gc.run ctx m;
  let v' = Roots.get cell in
  Alcotest.(check bool) "moved out of nursery" false
    (Local_heap.in_nursery m.Ctx.lh (Value.to_ptr v'));
  Alcotest.(check bool) "now young" true
    (Local_heap.in_young m.Ctx.lh (Value.to_ptr v'));
  Alcotest.check Gc_util.snap "structure preserved" before (Gc_util.snapshot ctx v');
  Gc_util.assert_invariants ctx

let test_minor_reclaims_garbage () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  (* Allocate garbage (unrooted), plus one live list. *)
  for i = 0 to 20 do
    ignore (Gc_util.build_list ctx m [ i; i + 1 ])
  done;
  let live = Gc_util.build_list ctx m [ 7 ] in
  let cell = Roots.add m.Ctx.roots live in
  let used_before = m.Ctx.lh.Local_heap.alloc_ptr - m.Ctx.lh.Local_heap.nursery_base in
  Minor_gc.run ctx m;
  (* Only the live list (2 fields + header = 24B) survives. *)
  Alcotest.(check int) "young bytes" 24 (Local_heap.young_bytes m.Ctx.lh);
  Alcotest.(check bool) "garbage dropped" true (used_before > 24);
  Alcotest.(check (list int)) "live readable" [ 7 ]
    (Gc_util.read_list ctx m (Roots.get cell));
  Gc_util.assert_invariants ctx

let test_minor_empties_nursery () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  ignore (Gc_util.build_list ctx m [ 1; 2 ]);
  Minor_gc.run ctx m;
  let lh = m.Ctx.lh in
  Alcotest.(check int) "nursery empty" 0
    (lh.Local_heap.alloc_ptr - lh.Local_heap.nursery_base);
  (* Appel split: the new nursery is the upper half of the free space. *)
  let free = lh.Local_heap.limit - lh.Local_heap.old_top in
  let reserved = lh.Local_heap.nursery_base - lh.Local_heap.old_top in
  Alcotest.(check bool) "halves balanced" true
    (abs (free - (2 * reserved)) <= 16)

let test_minor_triggered_by_full_nursery () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let head = Roots.add m.Ctx.roots (Value.of_int 0) in
  (* Keep a growing live list; allocation pressure forces minors. *)
  for i = 1 to 300 do
    let v = Alloc.alloc_vector ctx m [| Value.of_int i; Roots.get head |] in
    Roots.set head v
  done;
  Alcotest.(check bool) "minors ran" true (Gc_util.count ctx m Gc_trace.Minor > 0);
  let l = Gc_util.read_list ctx m (Roots.get head) in
  Alcotest.(check int) "length" 300 (List.length l);
  Alcotest.(check int) "newest first" 300 (List.hd l);
  Gc_util.assert_invariants ctx

let test_minor_shared_structure () =
  (* A DAG: two roots sharing a tail must still share after copying
     (evacuate must use the forwarding word on the second visit). *)
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let tail = Gc_util.build_list ctx m [ 5; 6 ] in
  let a = Alloc.alloc_vector ctx m [| Value.of_int 1; tail |] in
  let ca = Roots.add m.Ctx.roots a in
  let b =
    Alloc.alloc_vector ctx m [| Value.of_int 2; Ctx.get_field ctx m (Value.to_ptr (Roots.get ca)) 1 |]
  in
  let cb = Roots.add m.Ctx.roots b in
  Minor_gc.run ctx m;
  let tail_of v = Ctx.get_field ctx m (Value.to_ptr v) 1 in
  Alcotest.(check bool) "tails still shared" true
    (Value.equal (tail_of (Roots.get ca)) (tail_of (Roots.get cb)));
  Gc_util.assert_invariants ctx

let test_minor_idempotent_when_empty () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Gc_util.build_list ctx m [ 1 ] in
  let cell = Roots.add m.Ctx.roots v in
  Minor_gc.run ctx m;
  let first = Roots.get cell in
  Minor_gc.run ctx m;
  (* Nothing in the nursery: the young partition becomes empty and the
     object stays put (it is old now). *)
  Alcotest.(check int) "young now empty" 0 (Local_heap.young_bytes m.Ctx.lh);
  Alcotest.(check bool) "object did not move" true
    (Value.equal first (Roots.get cell));
  Gc_util.assert_invariants ctx

let test_minor_updates_proxy_referent () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Gc_util.build_list ctx m [ 9 ] in
  let paddr, _cell = Gc_util.make_proxy ctx m v in
  Minor_gc.run ctx m;
  let r = Proxy.referent ctx.Ctx.store paddr in
  Alcotest.(check bool) "referent updated into old area" true
    (Local_heap.in_old m.Ctx.lh (Value.to_ptr r));
  Alcotest.(check (list int)) "referent readable" [ 9 ]
    (Gc_util.read_list ctx m r);
  Gc_util.assert_invariants ctx

let test_minor_raw_objects () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let r = Alloc.alloc_float_array ctx m [| 1.5; -2.25; 3.75 |] in
  let cell = Roots.add m.Ctx.roots r in
  Minor_gc.run ctx m;
  let r' = Roots.get cell in
  Alcotest.(check (float 0.)) "f0" 1.5 (Ctx.get_float ctx m (Value.to_ptr r') 0);
  Alcotest.(check (float 0.)) "f1" (-2.25) (Ctx.get_float ctx m (Value.to_ptr r') 1);
  Alcotest.(check (float 0.)) "f2" 3.75 (Ctx.get_float ctx m (Value.to_ptr r') 2)

let prop_minor_preserves_random_trees =
  QCheck.Test.make ~name:"minor preserves random trees" ~count:60
    QCheck.(pair (int_range 0 6) (int_range 1 1000))
    (fun (depth, seed) ->
      let ctx = Gc_util.mk_ctx () in
      let m = Ctx.mutator ctx 0 in
      let v = Gc_util.build_tree ctx m depth seed in
      let before = Gc_util.snapshot ctx v in
      let cell = Roots.add m.Ctx.roots v in
      Minor_gc.run ctx m;
      let ok = Gc_util.snapshot ctx (Roots.get cell) = before in
      ok && Result.is_ok (Ctx.check_invariants ctx))

let suite =
  ( "minor_gc",
    [
      Alcotest.test_case "alloc and read" `Quick test_alloc_and_read;
      Alcotest.test_case "preserves live data" `Quick test_minor_preserves_live;
      Alcotest.test_case "reclaims garbage" `Quick test_minor_reclaims_garbage;
      Alcotest.test_case "empties nursery, re-splits" `Quick test_minor_empties_nursery;
      Alcotest.test_case "triggered by full nursery" `Quick
        test_minor_triggered_by_full_nursery;
      Alcotest.test_case "shared structure kept shared" `Quick test_minor_shared_structure;
      Alcotest.test_case "empty minor is a no-op" `Quick test_minor_idempotent_when_empty;
      Alcotest.test_case "updates proxy referent" `Quick test_minor_updates_proxy_referent;
      Alcotest.test_case "raw objects survive" `Quick test_minor_raw_objects;
      QCheck_alcotest.to_alcotest prop_minor_preserves_random_trees;
    ] )
