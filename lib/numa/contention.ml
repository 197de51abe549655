(* All fields are floats, so OCaml stores the record flat and a charge
   boxes nothing when it updates the window.  [window] holds a whole
   number. *)
type t = {
  gb_per_s : float; (* real service rate: GB/s = bytes per ns *)
  cap_gb_per_s : float; (* shared capacity for saturation accounting *)
  window_ns : float;
  cap_bytes : float; (* servable bytes per window *)
  mutable window : float; (* index of the current window *)
  mutable bytes : float; (* offered in the current window, incl. carry *)
  mutable total : float;
}

let create ~gb_per_s ?(cap_scale = 1.) ?(window_ns = 100_000.) () =
  if gb_per_s <= 0. || window_ns <= 0. || cap_scale < 1. then
    invalid_arg "Contention.create";
  let cap_gb_per_s = gb_per_s /. cap_scale in
  {
    gb_per_s;
    cap_gb_per_s;
    window_ns;
    cap_bytes = cap_gb_per_s *. window_ns;
    window = 0.;
    bytes = 0.;
    total = 0.;
  }

(* A transfer request.  All floats too, so neither side boxes: the
   caller sets [at_ns], {!transfer} writes the split delay. *)
type req = {
  mutable at_ns : float;
  mutable service : float;
  mutable overflow : float;
}

let req () = { at_ns = 0.; service = 0.; overflow = 0. }

(* Inlined into the charges, so the clock they read from a request stays
   unboxed. *)
let[@inline] roll t now_ns =
  let w = float_of_int (int_of_float (now_ns /. t.window_ns)) in
  if w > t.window then begin
    (* Unserved overflow spills forward; idle windows drain it. *)
    let carry = Float.max 0. (t.bytes -. t.cap_bytes) in
    let idle = w -. t.window -. 1. in
    t.bytes <- Float.max 0. (carry -. (idle *. t.cap_bytes));
    t.window <- w
  end
  (* A charge from a lagging clock lands in the current window. *)

(* Overflow is billed at a multiple of its (capacity-rate) service time
   that grows with utilization: queueing delay under overload punishes
   every requester, not just the marginal byte, so delivered throughput
   converges to the capacity from above (within ~10%) instead of
   drifting past it. *)
let overflow_scale = 40.

let[@inline] delay t ~now_ns ~bytes =
  roll t now_ns;
  let b = float_of_int bytes in
  let over0 = Float.max 0. (t.bytes -. t.cap_bytes) in
  t.bytes <- t.bytes +. b;
  t.total <- t.total +. b;
  let over1 = Float.max 0. (t.bytes -. t.cap_bytes) in
  let u = t.bytes /. t.cap_bytes in
  (b /. t.gb_per_s)
  +. ((over1 -. over0) *. overflow_scale *. u /. t.cap_gb_per_s)

let charge t ~now_ns ~bytes = delay t ~now_ns ~bytes
let[@inline] service_ns t ~bytes = float_of_int bytes /. t.gb_per_s

let transfer t r ~bytes =
  let d = delay t ~now_ns:r.at_ns ~bytes in
  let s = service_ns t ~bytes in
  r.service <- s;
  r.overflow <- d -. s

let utilization t ~now_ns =
  roll t now_ns;
  t.bytes /. t.cap_bytes

let total_bytes t = t.total
let capacity_gb_per_s t = t.cap_gb_per_s

let reset t =
  t.window <- 0.;
  t.bytes <- 0.;
  t.total <- 0.
