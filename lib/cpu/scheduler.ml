type policy =
  | Oldest_ready
  | Crisp
  | Random_ready

(* Age order without an age matrix.  RS entries are a subset of the ROB,
   and the ROB is in age order, so each occupied slot carries an age
   position assigned in dispatch order modulo [span] (the ROB size).  The
   live positions then lie within one lap behind the newest, and the
   oldest candidate is the first set bit of an age-indexed vector met
   scanning circularly from the position after the newest: a few word
   operations, whatever the number of candidates. *)
type t = {
  policy : policy;
  slots : int;
  span : int;
  pos : int array;  (* slot -> age position, -1 when free *)
  owner : int array;  (* age position -> slot, -1 when free *)
  mutable next_pos : int;  (* position after the newest *)
  (* Insertion stamps, read only by [slot_older]: the scoreboard's
     reference order stays independent of the positions it checks. *)
  stamp : int array;
  mutable clock : int;
  ready : Bitset.t;  (* BID vector, by slot *)
  critical : Bitset.t;  (* criticality tags of occupied slots, by slot *)
  selected : Bitset.t;  (* slots already selected this cycle *)
  scratch : Bitset.t;
  (* By age position: ready and not selected this cycle, and that AND
     critical (the PRIO vector).  A selection clears its bits;
     [begin_cycle] restores them for selected slots still ready. *)
  age_ready : Bitset.t;
  age_prio : Bitset.t;
  free : int array;  (* free-slot stack, randomised for RAND allocation *)
  mutable free_count : int;
  rng : Prng.t;
  (* The single instrumentation point of the scheduler: fired once per
     successful selection, after the selected bit is set.  Both the debug
     scoreboard and the observability tracer attach through this hook, so
     adding an observer never adds a second introspection call site. *)
  mutable on_select : (slot:int -> prio_override:bool -> unit) option;
}

let create ?(seed = 0x5c3d) ~slots ~span policy =
  if span <= 0 then invalid_arg "Scheduler.create: span must be positive";
  { policy;
    slots;
    span;
    pos = Array.make slots (-1);
    owner = Array.make span (-1);
    next_pos = 0;
    stamp = Array.make slots 0;
    clock = 0;
    ready = Bitset.create slots;
    critical = Bitset.create slots;
    selected = Bitset.create slots;
    scratch = Bitset.create slots;
    age_ready = Bitset.create span;
    age_prio = Bitset.create span;
    free = Array.init slots (fun i -> i);
    free_count = slots;
    rng = Prng.create seed;
    on_select = None }

let set_on_select t hook = t.on_select <- hook

let policy t = t.policy

let free_slots t = t.free_count

let occupancy t = t.slots - t.free_count

let any_ready t = not (Bitset.is_empty t.ready)

let allocate_slot t ~critical =
  if t.free_count = 0 then -1
  else begin
    let p = t.next_pos in
    if t.owner.(p) >= 0 then
      invalid_arg "Scheduler.allocate_slot: age position still held by a live slot";
    (* RAND allocation: newly fetched instructions land in random slots. *)
    let pick = Prng.int t.rng t.free_count in
    let slot = t.free.(pick) in
    t.free.(pick) <- t.free.(t.free_count - 1);
    t.free_count <- t.free_count - 1;
    t.next_pos <- (if p + 1 = t.span then 0 else p + 1);
    t.owner.(p) <- slot;
    t.pos.(slot) <- p;
    t.clock <- t.clock + 1;
    t.stamp.(slot) <- t.clock;
    if critical then Bitset.set t.critical slot;
    slot
  end

let set_age_bits t slot =
  let p = t.pos.(slot) in
  Bitset.set t.age_ready p;
  if Bitset.mem t.critical slot then Bitset.set t.age_prio p

let clear_age_bits t slot =
  let p = t.pos.(slot) in
  Bitset.clear t.age_ready p;
  Bitset.clear t.age_prio p

let mark_ready t slot =
  Bitset.set t.ready slot;
  if not (Bitset.mem t.selected slot) then set_age_bits t slot

let rec restore_selected t i =
  let slot = Bitset.next_set t.selected i in
  if slot >= 0 then begin
    if t.pos.(slot) >= 0 && Bitset.mem t.ready slot then set_age_bits t slot;
    restore_selected t (slot + 1)
  end

let begin_cycle t =
  restore_selected t 0;
  Bitset.clear_all t.selected

let pick_random t =
  Bitset.diff_into ~a:t.ready ~b:t.selected ~dst:t.scratch;
  let n = Bitset.count t.scratch in
  if n = 0 then -1
  else
    (* The n-th set bit in index order is exactly the slot the old
       full-iteration walk landed on; nth_set stops at the winner. *)
    Bitset.nth_set t.scratch (Prng.int t.rng n)

(* Oldest member of an age-indexed set, as a slot; -1 when empty. *)
let oldest t set =
  let p = Bitset.next_set_circular set t.next_pos in
  if p < 0 then -1 else t.owner.(p)

(* Tail of [select]: record and announce a successful pick.  Split out so
   each policy arm can call it directly instead of building an
   intermediate (slot, prio_override) tuple on the minor heap. *)
let finish t slot prio_override =
  if slot >= 0 then begin
    clear_age_bits t slot;
    Bitset.set t.selected slot;
    match t.on_select with
    | Some hook -> hook ~slot ~prio_override
    | None -> ()
  end;
  slot

let select t =
  match t.policy with
  | Oldest_ready -> finish t (oldest t t.age_ready) false
  | Random_ready -> finish t (pick_random t) false
  | Crisp ->
    (* PRIO = ready AND critical AND not selected; fall back to the plain
       oldest-ready pick when no prioritised candidate remains. *)
    let prio_pick = oldest t t.age_prio in
    if prio_pick >= 0 then begin
      (* The override comparison is only of interest to observers; skip
         the extra (read-only) scan when none listens. *)
      let overrode = Option.is_some t.on_select && oldest t t.age_ready <> prio_pick in
      finish t prio_pick overrode
    end
    else finish t (oldest t t.age_ready) false

let issue t slot =
  let p = t.pos.(slot) in
  if p < 0 then invalid_arg "Scheduler.issue: slot not occupied";
  clear_age_bits t slot;
  t.owner.(p) <- -1;
  t.pos.(slot) <- -1;
  Bitset.clear t.ready slot;
  Bitset.clear t.critical slot;
  t.free.(t.free_count) <- slot;
  t.free_count <- t.free_count + 1

let unready t slot =
  Bitset.clear t.ready slot;
  clear_age_bits t slot

(* ---- scoreboard introspection (read-only) ---- *)

let slots t = t.slots

let slot_occupied t slot = t.pos.(slot) >= 0

let slot_ready t slot = Bitset.mem t.ready slot

let slot_critical t slot = Bitset.mem t.critical slot

let slot_selected t slot = Bitset.mem t.selected slot

let slot_older t a b = t.stamp.(a) < t.stamp.(b)

let self_check t =
  let fail = ref None in
  let report fmt =
    Format.kasprintf (fun s -> if !fail = None then fail := Some s) fmt
  in
  for s = 0 to t.slots - 1 do
    if not (slot_occupied t s) then begin
      if slot_ready t s then report "BID bit set on unoccupied slot %d" s;
      if slot_critical t s then report "PRIO bit set on unoccupied slot %d" s
    end
    else begin
      let p = t.pos.(s) in
      if t.owner.(p) <> s then
        report "slot %d holds age position %d, owned by slot %d" s p t.owner.(p);
      let candidate = slot_ready t s && not (slot_selected t s) in
      if Bitset.mem t.age_ready p <> candidate then
        report "age-ordered ready bit of slot %d disagrees with BID and selection" s;
      if Bitset.mem t.age_prio p <> (candidate && slot_critical t s) then
        report "age-ordered PRIO bit of slot %d disagrees with BID and tag" s
    end
  done;
  (* Walking positions from the one after the newest must meet the
     occupants in insertion order: the picker's order is the stamps'. *)
  let last = ref 0 in
  for k = 0 to t.span - 1 do
    let p = (t.next_pos + k) mod t.span in
    let s = t.owner.(p) in
    if s >= 0 then begin
      if t.pos.(s) <> p then report "age position %d names slot %d, which is elsewhere" p s;
      if t.stamp.(s) <= !last then
        report "slot %d at age position %d is out of insertion order" s p;
      last := t.stamp.(s)
    end
    else begin
      if Bitset.mem t.age_ready p then report "ready bit at free age position %d" p;
      if Bitset.mem t.age_prio p then report "PRIO bit at free age position %d" p
    end
  done;
  !fail
