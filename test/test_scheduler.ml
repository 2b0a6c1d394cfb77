(* Tests for the bitsets, the age-ordered picker and the
   select-then-arbitrate scheduler, including the property that every
   policy's picks agree with a plain insertion-order reference. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------------- Bitset ---------------- *)

let test_bitset_basics () =
  let b = Bitset.create 100 in
  check bool "fresh is empty" true (Bitset.is_empty b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  check bool "mem 63 (word boundary)" true (Bitset.mem b 63);
  check int "count" 3 (Bitset.count b);
  Bitset.clear b 63;
  check bool "cleared" false (Bitset.mem b 63);
  let rec set_bits i = if i < 0 then [] else i :: set_bits (Bitset.next_set b (i + 1)) in
  check bool "iteration ascending" true (set_bits (Bitset.next_set b 0) = [ 0; 99 ])

let test_bitset_ops () =
  let a = Bitset.create 70 and b = Bitset.create 70 and dst = Bitset.create 70 in
  List.iter (Bitset.set a) [ 1; 5; 64 ];
  List.iter (Bitset.set b) [ 5; 64; 69 ];
  Bitset.diff_into ~a ~b ~dst;
  check bool "difference keeps 1 only" true (Bitset.mem dst 1 && Bitset.count dst = 1)

(* ---------------- Age matrix ---------------- *)

(* The scheduler keeps the age matrix's order as age positions assigned
   in dispatch order; these cases pin that order through [select]. *)

let fill_scheduler sched specs =
  (* specs: (critical, ready) list in dispatch order; returns slots *)
  List.map
    (fun (critical, ready) ->
      match Scheduler.allocate_slot sched ~critical with
      | -1 -> Alcotest.fail "scheduler full"
      | slot ->
        if ready then Scheduler.mark_ready sched slot;
        slot)
    specs

let test_age_matrix_basic_order () =
  let s = Scheduler.create ~slots:8 ~span:8 Scheduler.Oldest_ready in
  let slots = fill_scheduler s [ (false, true); (false, true); (false, true) ] in
  Scheduler.begin_cycle s;
  let first = Scheduler.select s in
  check int "oldest is the first inserted" (List.nth slots 0) first;
  Scheduler.issue s first;
  Scheduler.begin_cycle s;
  check int "then the second" (List.nth slots 1) (Scheduler.select s)

let test_age_matrix_slot_reuse () =
  (* Two slots, two positions: the third dispatch reuses both the freed
     slot and the freed age position, and must still read as youngest. *)
  let s = Scheduler.create ~slots:2 ~span:2 Scheduler.Oldest_ready in
  let a = Scheduler.allocate_slot s ~critical:false in
  let b = Scheduler.allocate_slot s ~critical:false in
  Scheduler.issue s a;
  let c = Scheduler.allocate_slot s ~critical:false in
  check int "the freed slot is reused" a c;
  Scheduler.mark_ready s c;
  Scheduler.mark_ready s b;
  Scheduler.begin_cycle s;
  check int "reused slot is younger" b (Scheduler.select s);
  check int "then the reused one" c (Scheduler.select s);
  check bool "sound" true (Scheduler.self_check s = None);
  (* More live dispatches than positions is a caller bug. *)
  let s = Scheduler.create ~slots:3 ~span:2 Scheduler.Oldest_ready in
  ignore (fill_scheduler s [ (false, false); (false, false) ]);
  Alcotest.check_raises "position still live"
    (Invalid_argument "Scheduler.allocate_slot: age position still held by a live slot")
    (fun () -> ignore (Scheduler.allocate_slot s ~critical:false))

(* Reference model: per slot an insertion stamp, BID, PRIO tag and
   selected bit, with picks computed by stamp order (oldest-ready, CRISP)
   or by the same seeded draw over the slot-ordered candidates (random).
   Driven by random allocate / mark_ready / unready / select / issue /
   begin_cycle sequences with a span small enough that positions wrap and
   an over-full allocation is attempted. *)
type ref_slot = {
  mutable occ : bool;
  mutable stamp : int;  (* allocation ordinal *)
  mutable rdy : bool;
  mutable crit : bool;
  mutable sel : bool;
}

let check_scheduler_against_reference policy seed =
  let n = 8 and span = 11 in
  let sched = Scheduler.create ~seed:(seed + 5) ~slots:n ~span policy in
  let draws = Prng.create (seed + 5) in
  let rng = Prng.create (seed + 23) in
  let r = Array.init n (fun _ -> { occ = false; stamp = 0; rdy = false; crit = false; sel = false }) in
  let allocs = ref 0 in
  let override = ref None in
  Scheduler.set_on_select sched
    (Some (fun ~slot:_ ~prio_override -> override := Some prio_override));
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let occupied () = List.filter (fun i -> r.(i).occ) (List.init n Fun.id) in
  let pick_any l = List.nth l (Prng.int rng (List.length l)) in
  let oldest l =
    List.fold_left
      (fun best i -> if best < 0 || r.(i).stamp < r.(best).stamp then i else best)
      (-1) l
  in
  for step = 1 to 400 do
    (match Prng.int rng 7 with
    | 0 | 1 ->
      let critical = Prng.bool rng in
      let free = n - List.length (occupied ()) in
      let blocked =
        List.exists (fun i -> (r.(i).stamp - 1) mod span = !allocs mod span) (occupied ())
      in
      if free = 0 then begin
        if Scheduler.allocate_slot sched ~critical <> -1 then fail "step %d: full RS allocated" step
      end
      else if blocked then begin
        match Scheduler.allocate_slot sched ~critical with
        | _ -> fail "step %d: allocation over a live age position succeeded" step
        | exception Invalid_argument _ -> ()
      end
      else begin
        ignore (Prng.int draws free);
        let slot = Scheduler.allocate_slot sched ~critical in
        if slot < 0 || r.(slot).occ then fail "step %d: allocated slot %d not free" step slot;
        incr allocs;
        r.(slot).occ <- true;
        r.(slot).stamp <- !allocs;
        r.(slot).rdy <- false;
        r.(slot).crit <- critical;
        if Prng.bool rng then begin
          Scheduler.mark_ready sched slot;
          r.(slot).rdy <- true
        end
      end
    | 2 -> (
      match occupied () with
      | [] -> ()
      | l ->
        let slot = pick_any l in
        if Prng.int rng 3 = 0 then begin
          Scheduler.unready sched slot;
          r.(slot).rdy <- false
        end
        else begin
          Scheduler.mark_ready sched slot;
          r.(slot).rdy <- true
        end)
    | 3 | 4 ->
      let cand = List.filter (fun i -> r.(i).rdy && not r.(i).sel) (occupied ()) in
      let crit = List.filter (fun i -> r.(i).crit) cand in
      let expected, expected_override =
        match policy with
        | Scheduler.Oldest_ready -> (oldest cand, false)
        | Scheduler.Crisp ->
          if crit <> [] then (oldest crit, oldest crit <> oldest cand)
          else (oldest cand, false)
        | Scheduler.Random_ready ->
          if cand = [] then (-1, false)
          else (List.nth cand (Prng.int draws (List.length cand)), false)
      in
      override := None;
      let got = Scheduler.select sched in
      if got <> expected then
        fail "step %d: select gave %d, the reference %d" step got expected;
      if got >= 0 then begin
        r.(got).sel <- true;
        if !override <> Some expected_override then
          fail "step %d: prio_override disagrees with the reference" step
      end
    | 5 -> (
      (* Issue mostly what was selected, sometimes any occupant. *)
      let sel = List.filter (fun i -> r.(i).sel) (occupied ()) in
      match (if sel <> [] && Prng.int rng 4 > 0 then sel else occupied ()) with
      | [] -> ()
      | l ->
        let slot = pick_any l in
        Scheduler.issue sched slot;
        r.(slot).occ <- false;
        r.(slot).rdy <- false;
        r.(slot).crit <- false)
    | _ ->
      Scheduler.begin_cycle sched;
      Array.iter (fun x -> x.sel <- false) r);
    (match Scheduler.self_check sched with
    | Some msg -> fail "step %d: %s" step msg
    | None -> ());
    if Scheduler.occupancy sched <> List.length (occupied ()) then
      fail "step %d: occupancy disagrees with the reference" step
  done;
  true

let prop_age_matrix_matches_reference =
  QCheck.Test.make ~name:"age matrix = insertion-order reference" ~count:100
    QCheck.small_int (fun seed ->
      List.for_all
        (fun policy -> check_scheduler_against_reference policy seed)
        [ Scheduler.Oldest_ready; Scheduler.Crisp; Scheduler.Random_ready ])

(* ---------------- Scheduler ---------------- *)

let test_scheduler_oldest_first () =
  let s = Scheduler.create ~slots:16 ~span:16 Scheduler.Oldest_ready in
  let slots = fill_scheduler s [ (false, true); (false, true); (false, true) ] in
  Scheduler.begin_cycle s;
  check int "oldest selected first" (List.nth slots 0) (Scheduler.select s);
  check int "then second oldest" (List.nth slots 1) (Scheduler.select s);
  check int "then third" (List.nth slots 2) (Scheduler.select s);
  check int "no more candidates" (-1) (Scheduler.select s)

let test_scheduler_crisp_prefers_critical () =
  let s = Scheduler.create ~slots:16 ~span:16 Scheduler.Crisp in
  let slots =
    fill_scheduler s [ (false, true); (false, true); (true, true); (false, true) ]
  in
  Scheduler.begin_cycle s;
  check int "youngest-but-critical wins" (List.nth slots 2) (Scheduler.select s);
  check int "then the oldest non-critical" (List.nth slots 0) (Scheduler.select s)

let test_scheduler_crisp_falls_back () =
  let s = Scheduler.create ~slots:16 ~span:16 Scheduler.Crisp in
  let slots = fill_scheduler s [ (false, true); (true, false) ] in
  Scheduler.begin_cycle s;
  check int "critical-but-not-ready is skipped" (List.nth slots 0) (Scheduler.select s)

let test_scheduler_selected_not_repicked () =
  let s = Scheduler.create ~slots:8 ~span:8 Scheduler.Oldest_ready in
  let slots = fill_scheduler s [ (false, true) ] in
  Scheduler.begin_cycle s;
  check int "selected once" (List.hd slots) (Scheduler.select s);
  check int "not re-selected within the cycle" (-1) (Scheduler.select s);
  Scheduler.begin_cycle s;
  check int "wasted slot becomes selectable next cycle" (List.hd slots)
    (Scheduler.select s)

let test_scheduler_issue_frees_slot () =
  let s = Scheduler.create ~slots:2 ~span:2 Scheduler.Oldest_ready in
  let slots = fill_scheduler s [ (false, true); (false, true) ] in
  check int "full" 0 (Scheduler.free_slots s);
  check int "allocate fails when full" (-1) (Scheduler.allocate_slot s ~critical:false);
  Scheduler.issue s (List.hd slots);
  check int "issue frees" 1 (Scheduler.free_slots s);
  check int "occupancy tracks" 1 (Scheduler.occupancy s)

let test_scheduler_unready () =
  let s = Scheduler.create ~slots:8 ~span:8 Scheduler.Oldest_ready in
  let slots = fill_scheduler s [ (false, true) ] in
  Scheduler.unready s (List.hd slots);
  Scheduler.begin_cycle s;
  check int "unready slot is not selectable" (-1) (Scheduler.select s);
  Scheduler.mark_ready s (List.hd slots);
  Scheduler.begin_cycle s;
  check int "re-readied slot selectable, age kept" (List.hd slots) (Scheduler.select s)

let prop_random_ready_selects_ready =
  QCheck.Test.make ~name:"random policy only selects ready slots" ~count:40
    QCheck.small_int (fun seed ->
      let s = Scheduler.create ~seed ~slots:32 ~span:32 Scheduler.Random_ready in
      let rng = Prng.create (seed + 2) in
      let ready_slots = Hashtbl.create 16 in
      for _ = 1 to 20 do
        match Scheduler.allocate_slot s ~critical:false with
        | -1 -> ()
        | slot ->
          if Prng.bool rng then begin
            Scheduler.mark_ready s slot;
            Hashtbl.replace ready_slots slot ()
          end
      done;
      Scheduler.begin_cycle s;
      let ok = ref true in
      let rec drain () =
        let slot = Scheduler.select s in
        if slot >= 0 then begin
          if not (Hashtbl.mem ready_slots slot) then ok := false;
          drain ()
        end
      in
      drain ();
      !ok)

let () =
  Alcotest.run "scheduler"
    [ ( "bitset",
        [ Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "set operations" `Quick test_bitset_ops ] );
      ( "age matrix",
        [ Alcotest.test_case "insertion order" `Quick test_age_matrix_basic_order;
          Alcotest.test_case "slot reuse" `Quick test_age_matrix_slot_reuse;
          QCheck_alcotest.to_alcotest prop_age_matrix_matches_reference ] );
      ( "scheduler",
        [ Alcotest.test_case "oldest-ready order" `Quick test_scheduler_oldest_first;
          Alcotest.test_case "CRISP prefers critical" `Quick
            test_scheduler_crisp_prefers_critical;
          Alcotest.test_case "CRISP fallback" `Quick test_scheduler_crisp_falls_back;
          Alcotest.test_case "per-cycle selection mask" `Quick
            test_scheduler_selected_not_repicked;
          Alcotest.test_case "issue frees slots" `Quick test_scheduler_issue_frees_slot;
          Alcotest.test_case "unready keeps age" `Quick test_scheduler_unready;
          QCheck_alcotest.to_alcotest prop_random_ready_selects_ready ] ) ]
