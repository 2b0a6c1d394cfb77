(* Calendar queue for completion events, replacing the
   [(int, int list) Hashtbl.t] calendar of the cycle loop.

   A ring of pre-allocated int vectors indexed by [cycle land (horizon-1)].
   The consumer drains every cycle in nondecreasing order, so a slot is
   always empty again by the time the wheel wraps back onto it — any event
   scheduled less than [horizon] cycles ahead goes straight into its slot.
   Events further out than the horizon (pathological DRAM queueing delays:
   [Dram.busy_until] accumulates without bound) land in a small overflow
   bucket scanned only on cycles where it is non-empty.

   Steady state allocates nothing: slot vectors grow by doubling on the
   rare capacity hit and are then reused forever. *)

type t = {
  horizon : int;           (* power of two *)
  mask : int;
  slot_data : int array array;  (* per-slot event payloads, newest last *)
  slot_len : int array;
  mutable ov_cycle : int array;  (* overflow bucket, parallel arrays *)
  mutable ov_data : int array;
  mutable ov_len : int;
  mutable pending : int;
}

let default_slot_capacity = 8

let create ?(slot_capacity = default_slot_capacity) ~horizon () =
  if horizon <= 0 || horizon land (horizon - 1) <> 0 then
    invalid_arg "Event_wheel.create: horizon must be a positive power of two";
  { horizon;
    mask = horizon - 1;
    slot_data = Array.init horizon (fun _ -> Array.make slot_capacity 0);
    slot_len = Array.make horizon 0;
    ov_cycle = Array.make 16 0;
    ov_data = Array.make 16 0;
    ov_len = 0;
    pending = 0 }


let pending t = t.pending

let overflow_length t = t.ov_len

let grow a = Array.append a (Array.make (Array.length a) 0)

let add t ~now ~cycle data =
  if data < 0 then invalid_arg "Event_wheel.add: data must be non-negative";
  if cycle <= now then invalid_arg "Event_wheel.add: cycle must be in the future";
  if cycle - now < t.horizon then begin
    let s = cycle land t.mask in
    let len = t.slot_len.(s) in
    if len = Array.length t.slot_data.(s) then
      t.slot_data.(s) <- grow t.slot_data.(s);
    t.slot_data.(s).(len) <- data;
    t.slot_len.(s) <- len + 1
  end
  else begin
    if t.ov_len = Array.length t.ov_cycle then begin
      t.ov_cycle <- grow t.ov_cycle;
      t.ov_data <- grow t.ov_data
    end;
    t.ov_cycle.(t.ov_len) <- cycle;
    t.ov_data.(t.ov_len) <- data;
    t.ov_len <- t.ov_len + 1
  end;
  t.pending <- t.pending + 1

(* Overflow scan: return the payload of the last bucket entry due at or
   before [cycle], compacting order-preservingly, or -1.  The bucket is
   nearly always empty; entries due this cycle are rarer still.

   Due means [<= cycle], not [= cycle]: under the drain-every-cycle
   contract the two are equivalent (an entry is popped on the cycle it
   falls due), but a consumer whose cycle counter {e jumps} — a window
   that fast-forwards past a quiet region — would strand an exact-match entry forever: its due cycle is
   skipped, [pending] never reaches zero, and the core's forward-progress
   guard trips.  Overdue entries are instead delivered at the first pop
   that reaches them. *)
let rec pop_overflow t ~cycle i =
  if i < 0 then -1
  else if t.ov_cycle.(i) <= cycle then begin
    let data = t.ov_data.(i) in
    (* shift the tail down one to keep insertion order *)
    let tail = t.ov_len - i - 1 in
    if tail > 0 then begin
      Array.blit t.ov_cycle (i + 1) t.ov_cycle i tail;
      Array.blit t.ov_data (i + 1) t.ov_data i tail
    end;
    t.ov_len <- t.ov_len - 1;
    data
  end
  else pop_overflow t ~cycle (i - 1)

let pop t ~cycle =
  let s = cycle land t.mask in
  let len = t.slot_len.(s) in
  if len > 0 then begin
    t.slot_len.(s) <- len - 1;
    t.pending <- t.pending - 1;
    t.slot_data.(s).(len - 1)
  end
  else if t.ov_len > 0 then begin
    let data = pop_overflow t ~cycle (t.ov_len - 1) in
    if data >= 0 then t.pending <- t.pending - 1;
    data
  end
  else -1

(* Ring scan for the first non-empty slot in [[c, stop)]. *)
let rec scan_ring t c stop =
  if c >= stop || t.slot_len.(c land t.mask) > 0 then c else scan_ring t (c + 1) stop

let rec overflow_min t i acc =
  if i < 0 then acc
  else overflow_min t (i - 1) (if t.ov_cycle.(i) < acc then t.ov_cycle.(i) else acc)

(* A ring entry added at [now < from] is due before [now + horizon], so
   the ring holds only cycles in [[from, from + horizon - 1)]: a scan of
   that window meets no entry of a later lap.  Overflow entries already
   overdue are delivered by the pop at [from]. *)
let next_due t ~from ~limit =
  let stop = if limit < from + t.horizon - 1 then limit else from + t.horizon - 1 in
  let ring = if t.pending > t.ov_len then scan_ring t from stop else stop in
  let due = if ring < stop then ring else limit in
  let ov = overflow_min t (t.ov_len - 1) max_int in
  let ov = if ov < from then from else ov in
  if ov < due then ov else due
