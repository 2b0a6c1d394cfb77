type policy =
  | Oldest_ready
  | Crisp
  | Random_ready

type t = {
  policy : policy;
  matrix : Age_matrix.t;
  ready : Bitset.t;  (* BID vector *)
  critical : Bitset.t;  (* criticality tags of occupied slots *)
  selected : Bitset.t;  (* slots already selected this cycle *)
  scratch : Bitset.t;
  scratch2 : Bitset.t;
  free : int array;  (* free-slot stack, randomised for RAND allocation *)
  mutable free_count : int;
  rng : Prng.t;
  (* The single instrumentation point of the scheduler: fired once per
     successful selection, after the selected bit is set.  Both the debug
     scoreboard and the observability tracer attach through this hook, so
     adding an observer never adds a second introspection call site. *)
  mutable on_select : (slot:int -> prio_override:bool -> unit) option;
}

let create ?(seed = 0x5c3d) ~slots policy =
  { policy;
    matrix = Age_matrix.create slots;
    ready = Bitset.create slots;
    critical = Bitset.create slots;
    selected = Bitset.create slots;
    scratch = Bitset.create slots;
    scratch2 = Bitset.create slots;
    free = Array.init slots (fun i -> i);
    free_count = slots;
    rng = Prng.create seed;
    on_select = None }

let set_on_select t hook = t.on_select <- hook

let policy t = t.policy

let free_slots t = t.free_count

let occupancy t = Age_matrix.slots t.matrix - t.free_count

let allocate_slot t ~critical =
  if t.free_count = 0 then -1
  else begin
    (* RAND allocation: newly fetched instructions land in random slots. *)
    let pick = Prng.int t.rng t.free_count in
    let slot = t.free.(pick) in
    t.free.(pick) <- t.free.(t.free_count - 1);
    t.free_count <- t.free_count - 1;
    Age_matrix.insert t.matrix slot;
    if critical then Bitset.set t.critical slot;
    slot
  end

let mark_ready t slot = Bitset.set t.ready slot

let begin_cycle t = Bitset.clear_all t.selected

(* ready AND NOT selected, computed into [scratch]. *)
let candidates t =
  Bitset.diff_into ~a:t.ready ~b:t.selected ~dst:t.scratch;
  t.scratch

let pick_random t cand =
  let n = Bitset.count cand in
  if n = 0 then -1
  else
    (* The n-th set bit in index order is exactly the slot the old
       full-iteration walk landed on; nth_set stops at the winner. *)
    Bitset.nth_set cand (Prng.int t.rng n)

(* Tail of [select]: record and announce a successful pick.  Split out so
   each policy arm can call it directly instead of building an
   intermediate (slot, prio_override) tuple on the minor heap. *)
let finish t slot prio_override =
  if slot >= 0 then begin
    Bitset.set t.selected slot;
    match t.on_select with
    | Some hook -> hook ~slot ~prio_override
    | None -> ()
  end;
  slot

let select t =
  let cand = candidates t in
  match t.policy with
  | Oldest_ready -> finish t (Age_matrix.pick_oldest t.matrix cand) false
  | Random_ready -> finish t (pick_random t cand) false
  | Crisp ->
    (* PRIO = ready AND critical AND not selected; fall back to the plain
       oldest-ready pick when no prioritised candidate remains. *)
    Bitset.inter_into ~a:cand ~b:t.critical ~dst:t.scratch2;
    let prio_pick = Age_matrix.pick_oldest t.matrix t.scratch2 in
    if prio_pick >= 0 then begin
      (* The override comparison is only of interest to observers; skip
         the extra (read-only) age-matrix reduction when none listens. *)
      let overrode =
        Option.is_some t.on_select
        && Age_matrix.pick_oldest t.matrix cand <> prio_pick
      in
      finish t prio_pick overrode
    end
    else finish t (Age_matrix.pick_oldest t.matrix cand) false

let issue t slot =
  Age_matrix.remove t.matrix slot;
  Bitset.clear t.ready slot;
  Bitset.clear t.critical slot;
  t.free.(t.free_count) <- slot;
  t.free_count <- t.free_count + 1

let unready t slot = Bitset.clear t.ready slot

(* ---- scoreboard introspection (read-only) ---- *)

let slots t = Age_matrix.slots t.matrix

let slot_occupied t slot = Age_matrix.occupied t.matrix slot

let slot_ready t slot = Bitset.mem t.ready slot

let slot_critical t slot = Bitset.mem t.critical slot

let slot_selected t slot = Bitset.mem t.selected slot

let slot_older t a b = Age_matrix.older t.matrix a b

let self_check t =
  match Age_matrix.self_check t.matrix with
  | Some _ as v -> v
  | None ->
    let fail = ref None in
    let report fmt =
      Format.kasprintf (fun s -> if !fail = None then fail := Some s) fmt
    in
    for s = 0 to slots t - 1 do
      if not (slot_occupied t s) then begin
        if slot_ready t s then report "BID bit set on unoccupied slot %d" s;
        if slot_critical t s then report "PRIO bit set on unoccupied slot %d" s
      end
    done;
    !fail
