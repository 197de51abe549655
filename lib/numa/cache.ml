(* A 4-way set-associative cache model with LRU replacement.  Ways of a
   set are kept in recency order (way 0 = most recent), so a hit is at
   most 4 comparisons and a fill shifts at most 3 entries. *)

type t = {
  line_bits : int;
  set_mask : int;
  ways : int;
  tags : int array; (* n_sets * ways, -1 = empty *)
  mutable hits : int;
  mutable misses : int;
}

let rec log2_floor n = if n <= 1 then 0 else 1 + log2_floor (n / 2)
let ways = 4

let create ~size_kb ~line_bytes =
  if size_kb <= 0 || line_bytes <= 0 then invalid_arg "Cache.create";
  let line_bits = log2_floor line_bytes in
  if 1 lsl line_bits <> line_bytes then
    invalid_arg "Cache.create: line_bytes must be a power of two";
  let n_lines = max ways (size_kb * 1024 / line_bytes) in
  let n_sets = max 1 (1 lsl log2_floor (n_lines / ways)) in
  {
    line_bits;
    set_mask = n_sets - 1;
    ways;
    tags = Array.make (n_sets * ways) (-1);
    hits = 0;
    misses = 0;
  }

let line_bytes t = 1 lsl t.line_bits

(* Way holding [line] in the set starting at [base], or -1.  A plain
   loop, not a local closure: this runs on every simulated access. *)
let find t base line =
  let i = ref 0 in
  while !i < t.ways && t.tags.(base + !i) <> line do
    incr i
  done;
  if !i < t.ways then !i else -1

let access t addr =
  let line = addr lsr t.line_bits in
  let base = (line land t.set_mask) * t.ways in
  let i = find t base line in
  (* Hit at way [i]: move it to the front.  Miss: evict the LRU way
     (last) and insert at the front.  Either way the ways ahead of it
     shift back by one. *)
  let hit = i >= 0 in
  if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  for j = (if hit then i else t.ways - 1) downto 1 do
    t.tags.(base + j) <- t.tags.(base + j - 1)
  done;
  t.tags.(base) <- line;
  hit

let probe t addr =
  let line = addr lsr t.line_bits in
  find t ((line land t.set_mask) * t.ways) line >= 0

let invalidate_range t ~lo ~hi =
  let lo_line = lo lsr t.line_bits and hi_line = hi lsr t.line_bits in
  Array.iteri
    (fun i tag -> if tag >= lo_line && tag < hi_line then t.tags.(i) <- -1)
    t.tags

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.hits <- 0;
  t.misses <- 0

let hits t = t.hits
let misses t = t.misses
