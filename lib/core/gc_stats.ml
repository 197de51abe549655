type t = {
  mutable promote_batched_values : int;
  mutable global_count : int;
  mutable global_copied_bytes : int;
  mutable alloc_bytes : int;
  mutable global_alloc_bytes : int;
  mutable gc_ns : float;
}

let create () =
  {
    promote_batched_values = 0;
    global_count = 0;
    global_copied_bytes = 0;
    alloc_bytes = 0;
    global_alloc_bytes = 0;
    gc_ns = 0.;
  }

let add ~into t =
  into.promote_batched_values <-
    into.promote_batched_values + t.promote_batched_values;
  into.global_count <- into.global_count + t.global_count;
  into.global_copied_bytes <- into.global_copied_bytes + t.global_copied_bytes;
  into.alloc_bytes <- into.alloc_bytes + t.alloc_bytes;
  into.global_alloc_bytes <- into.global_alloc_bytes + t.global_alloc_bytes;
  into.gc_ns <- into.gc_ns +. t.gc_ns

let total arr =
  let acc = create () in
  Array.iter (fun t -> add ~into:acc t) arr;
  acc

let pp (m : Metrics.vproc_stats) ppf t =
  let count = Metrics.kind_count m and bytes = Metrics.kind_bytes m in
  Format.fprintf ppf
    "@[<v>minor: %s collections, %a copied@,\
     major: %s collections, %a copied@,\
     promotions: %s cycles (%s batched values), %a@,\
     global: %s collections, %a copied@,\
     allocated: %a nursery, %a global; %s chunk acquires@,\
     gc time: %a (simulated)@]"
    (Units.grouped (count Gc_trace.Minor)) Units.pp_bytes (bytes Gc_trace.Minor)
    (Units.grouped (count Gc_trace.Major)) Units.pp_bytes (bytes Gc_trace.Major)
    (Units.grouped (count Gc_trace.Promotion))
    (Units.grouped t.promote_batched_values)
    Units.pp_bytes (bytes Gc_trace.Promotion)
    (Units.grouped t.global_count) Units.pp_bytes (bytes Gc_trace.Global)
    Units.pp_bytes t.alloc_bytes Units.pp_bytes t.global_alloc_bytes
    (Units.grouped m.Metrics.chunk_acquires) Units.pp_ns t.gc_ns
