(* Promotion (§3.1): copying an object graph into the global heap so it
   can be shared, leaving forwarding words behind. *)

open Heap
open Manticore_gc

let test_promote_immediate () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Value.of_int 17 in
  Alcotest.(check bool) "unchanged" true (Value.equal v (Promote.value ctx m v))

let test_promote_list () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Gc_util.build_list ctx m [ 1; 2; 3 ] in
  let before = Gc_util.snapshot ctx v in
  let g = Promote.value ctx m v in
  Alcotest.(check bool) "result is global" true
    (Global_heap.contains ctx.Ctx.global (Value.to_ptr g));
  Alcotest.check Gc_util.snap "structure preserved" before (Gc_util.snapshot ctx g);
  (* Transitivity: every cons cell left the local heap. *)
  let rec all_global v =
    Value.is_int v
    || (Global_heap.contains ctx.Ctx.global (Value.to_ptr v)
       && all_global (Obj_repr.get_field ctx.Ctx.store (Value.to_ptr v) 1))
  in
  Alcotest.(check bool) "deep promotion" true (all_global g);
  Gc_util.assert_invariants ctx

let test_promote_leaves_forwarding () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Gc_util.build_list ctx m [ 4 ] in
  let g = Promote.value ctx m v in
  let h = Obj_repr.header ctx.Ctx.store (Value.to_ptr v) in
  Alcotest.(check bool) "forwarding word" true (Header.is_forward h);
  Alcotest.(check int) "points to global copy" (Value.to_ptr g)
    (Header.forward_addr h);
  (* A held stale reference resolves through the forwarding word. *)
  let resolved = Ctx.resolve ctx m v in
  Alcotest.(check bool) "resolve" true (Value.equal resolved g)

let test_promote_idempotent () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Gc_util.build_list ctx m [ 5 ] in
  let g1 = Promote.value ctx m v in
  let g2 = Promote.value ctx m g1 in
  Alcotest.(check bool) "second promotion is identity" true (Value.equal g1 g2);
  (* Promoting the stale local pointer again lands on the same copy. *)
  let g3 = Promote.value ctx m v in
  Alcotest.(check bool) "forwarded, not re-copied" true (Value.equal g1 g3)

let test_promote_shared_tail () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let tail = Gc_util.build_list ctx m [ 8; 9 ] in
  let a = Alloc.alloc_vector ctx m [| Value.of_int 1; tail |] in
  let ca = Roots.add m.Ctx.roots a in
  let b = Alloc.alloc_vector ctx m [| Value.of_int 2;
      Ctx.get_field ctx m (Value.to_ptr (Roots.get ca)) 1 |] in
  let ga = Promote.value ctx m (Roots.get ca) in
  let gb = Promote.value ctx m b in
  let tail_of v = Obj_repr.get_field ctx.Ctx.store (Value.to_ptr v) 1 in
  Alcotest.(check bool) "sharing preserved across promotions" true
    (Value.equal (tail_of ga) (tail_of gb));
  Gc_util.assert_invariants ctx

let test_promoted_survives_local_gcs () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let v = Gc_util.build_list ctx m [ 1; 2 ] in
  let g = Promote.value ctx m v in
  let cell = Roots.add m.Ctx.roots g in
  Minor_gc.run ctx m;
  Major_gc.run ctx m;
  (* Global data is untouched by local collections. *)
  Alcotest.(check bool) "same address" true (Value.equal g (Roots.get cell));
  Alcotest.(check (list int)) "readable" [ 1; 2 ]
    (Gc_util.read_list ctx m (Roots.get cell));
  Gc_util.assert_invariants ctx

let test_promote_mixed_local_global () =
  (* A local vector referencing an already-global value: promotion copies
     the local spine only and keeps the global reference as is. *)
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let g0 = Promote.value ctx m (Gc_util.build_list ctx m [ 7 ]) in
  let v = Alloc.alloc_vector ctx m [| Value.of_int 0; g0 |] in
  let promoted_before = Gc_util.copied ctx m Gc_trace.Promotion in
  let g = Promote.value ctx m v in
  Alcotest.(check int) "only the spine copied" 24
    (Gc_util.copied ctx m Gc_trace.Promotion - promoted_before);
  Alcotest.(check bool) "global field untouched" true
    (Value.equal g0 (Obj_repr.get_field ctx.Ctx.store (Value.to_ptr g) 1));
  Gc_util.assert_invariants ctx

let test_promotion_then_minor_walks_forwarding () =
  (* After a promotion, the nursery contains forwarding words; an
     unrelated minor collection must cope with them. *)
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  ignore (Promote.value ctx m (Gc_util.build_list ctx m [ 1; 2; 3 ]));
  let live = Gc_util.build_list ctx m [ 4 ] in
  let cell = Roots.add m.Ctx.roots live in
  Minor_gc.run ctx m;
  Major_gc.run ctx m;
  Alcotest.(check (list int)) "live fine" [ 4 ]
    (Gc_util.read_list ctx m (Roots.get cell));
  Gc_util.assert_invariants ctx

(* --- Batched promotion (the promotion write buffer) ---------------- *)

let test_batch_counts_one_cycle () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let vs = Array.init 5 (fun i ->
      Roots.add m.Ctx.roots (Gc_util.build_list ctx m [ i; i + 1 ])) in
  let snaps = Array.map (fun c -> Gc_util.snapshot ctx (Roots.get c)) vs in
  let count0 = Gc_util.count ctx m Gc_trace.Promotion in
  let gs = Promote.batch ctx m (Array.map Roots.get vs) in
  Alcotest.(check int) "one promotion cycle for five roots" (count0 + 1)
    (Gc_util.count ctx m Gc_trace.Promotion);
  Alcotest.(check int) "all five counted as batched values" 5
    m.Ctx.stats.Gc_stats.promote_batched_values;
  Array.iteri
    (fun i g ->
      Alcotest.(check bool) "result is global" true
        (Global_heap.contains ctx.Ctx.global (Value.to_ptr g));
      Alcotest.check Gc_util.snap "structure preserved" snaps.(i)
        (Gc_util.snapshot ctx g))
    gs;
  Gc_util.assert_invariants ctx

let test_batch_preserves_sharing () =
  (* Two roots sharing a tail promote through one batch without
     duplicating the tail — same aliasing as repeated Promote.value. *)
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let tail = Gc_util.build_list ctx m [ 8; 9 ] in
  let ca = Roots.add m.Ctx.roots
      (Alloc.alloc_vector ctx m [| Value.of_int 1; tail |]) in
  let cb = Roots.add m.Ctx.roots
      (Alloc.alloc_vector ctx m
         [| Value.of_int 2;
            Ctx.get_field ctx m (Value.to_ptr (Roots.get ca)) 1 |]) in
  let bytes0 = Gc_util.copied ctx m Gc_trace.Promotion in
  let gs = Promote.batch ctx m [| Roots.get ca; Roots.get cb |] in
  let tail_of v = Obj_repr.get_field ctx.Ctx.store (Value.to_ptr v) 1 in
  Alcotest.(check bool) "tail shared, not duplicated" true
    (Value.equal (tail_of gs.(0)) (tail_of gs.(1)));
  (* Singleton promotion of the same shape copies the same bytes: the
     two 2-field spines plus one 2-cons tail, once. *)
  let ctx' = Gc_util.mk_ctx () in
  let m' = Ctx.mutator ctx' 0 in
  let tail' = Gc_util.build_list ctx' m' [ 8; 9 ] in
  let ca' = Roots.add m'.Ctx.roots
      (Alloc.alloc_vector ctx' m' [| Value.of_int 1; tail' |]) in
  let cb' = Roots.add m'.Ctx.roots
      (Alloc.alloc_vector ctx' m'
         [| Value.of_int 2;
            Ctx.get_field ctx' m' (Value.to_ptr (Roots.get ca')) 1 |]) in
  let bytes0' = Gc_util.copied ctx' m' Gc_trace.Promotion in
  ignore (Promote.value ctx' m' (Roots.get ca'));
  ignore (Promote.value ctx' m' (Roots.get cb'));
  Alcotest.(check int) "batched bytes = singleton-sum bytes"
    (Gc_util.copied ctx' m' Gc_trace.Promotion - bytes0')
    (Gc_util.copied ctx m Gc_trace.Promotion - bytes0);
  Gc_util.assert_invariants ctx

let test_batch_cyclic_graph () =
  (* A ref cycle: r -> v -> r.  Batching both roots must terminate and
     preserve the cycle through forwarding words. *)
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let cr = Roots.add m.Ctx.roots (Mut.alloc_ref ctx m Value.unit) in
  let cv = Roots.add m.Ctx.roots
      (Alloc.alloc_vector ctx m [| Value.of_int 1; Roots.get cr |]) in
  Mut.set ctx m (Roots.get cr) (Roots.get cv);
  let gs = Promote.batch ctx m [| Roots.get cr; Roots.get cv |] in
  let gr = gs.(0) and gv = gs.(1) in
  Alcotest.(check bool) "ref points at promoted vector" true
    (Value.equal (Mut.get ctx m gr) gv);
  Alcotest.(check bool) "vector points back at promoted ref" true
    (Value.equal (Obj_repr.get_field ctx.Ctx.store (Value.to_ptr gv) 1) gr);
  Gc_util.assert_invariants ctx

let test_batch_skips_nonlocal () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let g0 = Promote.value ctx m (Gc_util.build_list ctx m [ 3 ]) in
  let count0 = Gc_util.count ctx m Gc_trace.Promotion in
  (* All-immediate / already-global input: no cycle recorded at all. *)
  let gs = Promote.batch ctx m [| Value.of_int 7; g0 |] in
  Alcotest.(check bool) "immediate unchanged" true
    (Value.equal (Value.of_int 7) gs.(0));
  Alcotest.(check bool) "global unchanged" true (Value.equal g0 gs.(1));
  Alcotest.(check int) "no promotion cycle" count0
    (Gc_util.count ctx m Gc_trace.Promotion)

let test_batch_end_is_final () =
  let ctx = Gc_util.mk_ctx () in
  let m = Ctx.mutator ctx 0 in
  let c = Roots.add m.Ctx.roots (Gc_util.build_list ctx m [ 1 ]) in
  let b = Promote.batch_begin ctx m in
  ignore (Promote.batch_add b (Roots.get c));
  Alcotest.(check int) "one value buffered" 1 (Promote.batch_values b);
  Promote.batch_end b;
  Promote.batch_end b (* idempotent *);
  Alcotest.check_raises "add after end rejected"
    (Invalid_argument "Promote.batch_add: batch already ended") (fun () ->
      ignore (Promote.batch_add b (Roots.get c)))

let prop_promote_preserves_random_trees =
  QCheck.Test.make ~name:"promotion preserves random trees" ~count:40
    QCheck.(pair (int_range 0 6) (int_range 1 1000))
    (fun (depth, seed) ->
      let ctx = Gc_util.mk_ctx () in
      let m = Ctx.mutator ctx 0 in
      let v = Gc_util.build_tree ctx m depth seed in
      let before = Gc_util.snapshot ctx v in
      let g = Promote.value ctx m v in
      Gc_util.snapshot ctx g = before
      && Result.is_ok (Ctx.check_invariants ctx))

let suite =
  ( "promote",
    [
      Alcotest.test_case "immediate unchanged" `Quick test_promote_immediate;
      Alcotest.test_case "promotes a list deeply" `Quick test_promote_list;
      Alcotest.test_case "leaves forwarding words" `Quick test_promote_leaves_forwarding;
      Alcotest.test_case "idempotent" `Quick test_promote_idempotent;
      Alcotest.test_case "sharing preserved" `Quick test_promote_shared_tail;
      Alcotest.test_case "survives local collections" `Quick
        test_promoted_survives_local_gcs;
      Alcotest.test_case "local/global boundary" `Quick test_promote_mixed_local_global;
      Alcotest.test_case "forwarding words tolerated by later GCs" `Quick
        test_promotion_then_minor_walks_forwarding;
      Alcotest.test_case "batch: one cycle for many roots" `Quick
        test_batch_counts_one_cycle;
      Alcotest.test_case "batch: sharing preserved, bytes = singleton-sum"
        `Quick test_batch_preserves_sharing;
      Alcotest.test_case "batch: cyclic graphs terminate" `Quick
        test_batch_cyclic_graph;
      Alcotest.test_case "batch: immediates/global skipped" `Quick
        test_batch_skips_nonlocal;
      Alcotest.test_case "batch: end is final and idempotent" `Quick
        test_batch_end_is_final;
      QCheck_alcotest.to_alcotest prop_promote_preserves_random_trees;
    ] )
