(* Tests for the bitsets, the age matrix and the select-then-arbitrate
   scheduler, including the property that the age matrix agrees with a
   plain insertion-order reference. *)

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
  let seen = ref [] in
  Bitset.iter_set (fun i -> seen := i :: !seen) b;
  check bool "iteration ascending" true (List.rev !seen = [ 0; 99 ])

let test_bitset_ops () =
  let a = Bitset.create 70 and b = Bitset.create 70 and dst = Bitset.create 70 in
  List.iter (Bitset.set a) [ 1; 5; 64 ];
  List.iter (Bitset.set b) [ 5; 64; 69 ];
  Bitset.inter_into ~a ~b ~dst;
  check int "intersection" 2 (Bitset.count dst);
  Bitset.diff_into ~a ~b ~dst;
  check bool "difference keeps 1 only" true (Bitset.mem dst 1 && Bitset.count dst = 1);
  check bool "inter_empty false" false (Bitset.inter_empty a b);
  let c = Bitset.create 70 in
  Bitset.set c 2;
  check bool "inter_empty true" true (Bitset.inter_empty a c)

let test_bitset_clear_everywhere () =
  let sets = Array.init 4 (fun _ -> Bitset.create 70) in
  Array.iter (fun s -> Bitset.set s 65) sets;
  Bitset.clear_bit_everywhere sets 65;
  Array.iter (fun s -> check bool "bit cleared in all" false (Bitset.mem s 65)) sets

(* ---------------- Age matrix ---------------- *)

let test_age_matrix_basic_order () =
  let m = Age_matrix.create 8 in
  Age_matrix.insert m 3;
  Age_matrix.insert m 1;
  Age_matrix.insert m 6;
  let cand = Bitset.create 8 in
  List.iter (Bitset.set cand) [ 1; 3; 6 ];
  check int "oldest is the first inserted" 3 (Age_matrix.pick_oldest m cand);
  Age_matrix.remove m 3;
  Bitset.clear cand 3;
  check int "then the second" 1 (Age_matrix.pick_oldest m cand)

let test_age_matrix_slot_reuse () =
  let m = Age_matrix.create 4 in
  Age_matrix.insert m 0;
  Age_matrix.insert m 1;
  Age_matrix.remove m 0;
  Age_matrix.insert m 0;
  (* slot 0 now holds a YOUNGER instruction than slot 1 *)
  let cand = Bitset.create 4 in
  Bitset.set cand 0;
  Bitset.set cand 1;
  check int "reused slot is younger" 1 (Age_matrix.pick_oldest m cand)

let prop_age_matrix_matches_reference =
  QCheck.Test.make ~name:"age matrix = insertion-order reference" ~count:60
    QCheck.small_int (fun seed ->
      let n = 16 in
      let m = Age_matrix.create n in
      let rng = Prng.create (seed + 1) in
      (* reference: list of occupied slots in insertion order *)
      let order = ref [] in
      let ok = ref true in
      for _ = 1 to 300 do
        let occupied = !order in
        if List.length occupied < n && (occupied = [] || Prng.bool rng) then begin
          (* insert into a random free slot *)
          let free =
            List.filter (fun s -> not (List.mem s occupied)) (List.init n Fun.id)
          in
          let slot = List.nth free (Prng.int rng (List.length free)) in
          Age_matrix.insert m slot;
          order := !order @ [ slot ]
        end
        else begin
          (* query a random non-empty candidate subset, compare, then
             remove the winner *)
          let cand_list =
            List.filter (fun _ -> Prng.bool rng) occupied
          in
          let cand_list = if cand_list = [] then [ List.hd occupied ] else cand_list in
          let cand = Bitset.create n in
          List.iter (Bitset.set cand) cand_list;
          let expected =
            (* first element of insertion order present in the candidates *)
            List.find (fun s -> List.mem s cand_list) occupied
          in
          let got = Age_matrix.pick_oldest m cand in
          if got <> expected then ok := false;
          Age_matrix.remove m got;
          order := List.filter (fun s -> s <> got) !order
        end
      done;
      !ok)

(* ---------------- Scheduler ---------------- *)

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

let test_scheduler_oldest_first () =
  let s = Scheduler.create ~slots:16 Scheduler.Oldest_ready in
  let slots = fill_scheduler s [ (false, true); (false, true); (false, true) ] in
  Scheduler.begin_cycle s;
  check int "oldest selected first" (List.nth slots 0) (Scheduler.select s);
  check int "then second oldest" (List.nth slots 1) (Scheduler.select s);
  check int "then third" (List.nth slots 2) (Scheduler.select s);
  check int "no more candidates" (-1) (Scheduler.select s)

let test_scheduler_crisp_prefers_critical () =
  let s = Scheduler.create ~slots:16 Scheduler.Crisp in
  let slots =
    fill_scheduler s [ (false, true); (false, true); (true, true); (false, true) ]
  in
  Scheduler.begin_cycle s;
  check int "youngest-but-critical wins" (List.nth slots 2) (Scheduler.select s);
  check int "then the oldest non-critical" (List.nth slots 0) (Scheduler.select s)

let test_scheduler_crisp_falls_back () =
  let s = Scheduler.create ~slots:16 Scheduler.Crisp in
  let slots = fill_scheduler s [ (false, true); (true, false) ] in
  Scheduler.begin_cycle s;
  check int "critical-but-not-ready is skipped" (List.nth slots 0) (Scheduler.select s)

let test_scheduler_selected_not_repicked () =
  let s = Scheduler.create ~slots:8 Scheduler.Oldest_ready in
  let slots = fill_scheduler s [ (false, true) ] in
  Scheduler.begin_cycle s;
  check int "selected once" (List.hd slots) (Scheduler.select s);
  check int "not re-selected within the cycle" (-1) (Scheduler.select s);
  Scheduler.begin_cycle s;
  check int "wasted slot becomes selectable next cycle" (List.hd slots)
    (Scheduler.select s)

let test_scheduler_issue_frees_slot () =
  let s = Scheduler.create ~slots:2 Scheduler.Oldest_ready in
  let slots = fill_scheduler s [ (false, true); (false, true) ] in
  check int "full" 0 (Scheduler.free_slots s);
  check int "allocate fails when full" (-1) (Scheduler.allocate_slot s ~critical:false);
  Scheduler.issue s (List.hd slots);
  check int "issue frees" 1 (Scheduler.free_slots s);
  check int "occupancy tracks" 1 (Scheduler.occupancy s)

let test_scheduler_unready () =
  let s = Scheduler.create ~slots:8 Scheduler.Oldest_ready in
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
      let s = Scheduler.create ~seed ~slots:32 Scheduler.Random_ready in
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
          Alcotest.test_case "set operations" `Quick test_bitset_ops;
          Alcotest.test_case "column clear" `Quick test_bitset_clear_everywhere ] );
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
