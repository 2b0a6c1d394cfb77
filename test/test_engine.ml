(* Tests for the allocation-free cycle engine's data structures — event
   wheel and its next-due query, intrusive wakeup lists, flat int table,
   bitset scan primitives, incremental TAGE folds — plus the engine-level
   GC budget and the random-ready picker. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------------- Event wheel ---------------- *)

let test_wheel_basic () =
  let w = Event_wheel.create ~horizon:16 () in
  Event_wheel.add w ~now:0 ~cycle:3 42;
  Event_wheel.add w ~now:0 ~cycle:5 7;
  check int "pending" 2 (Event_wheel.pending w);
  check int "nothing due yet" (-1) (Event_wheel.pop w ~cycle:2);
  check int "due at 3" 42 (Event_wheel.pop w ~cycle:3);
  check int "slot drained" (-1) (Event_wheel.pop w ~cycle:3);
  check int "due at 5" 7 (Event_wheel.pop w ~cycle:5);
  check int "empty" 0 (Event_wheel.pending w)

let test_wheel_same_cycle_lifo () =
  let w = Event_wheel.create ~horizon:16 () in
  Event_wheel.add w ~now:0 ~cycle:4 1;
  Event_wheel.add w ~now:0 ~cycle:4 2;
  Event_wheel.add w ~now:0 ~cycle:4 3;
  (* Newest-first, matching the prepend-then-iterate Hashtbl calendar. *)
  check int "pop newest" 3 (Event_wheel.pop w ~cycle:4);
  check int "then middle" 2 (Event_wheel.pop w ~cycle:4);
  check int "then oldest" 1 (Event_wheel.pop w ~cycle:4);
  check int "drained" (-1) (Event_wheel.pop w ~cycle:4)

let test_wheel_wraparound () =
  let w = Event_wheel.create ~horizon:8 () in
  (* Drive the wheel through several laps; slots must be clean on reuse. *)
  for now = 0 to 40 do
    Event_wheel.add w ~now ~cycle:(now + 7) now;
    (* drain events due at [now + 1] before the next iteration adds *)
    let due = now + 1 - 7 in
    if due >= 0 then
      check int
        (Printf.sprintf "lap event at %d" (now + 1))
        due
        (Event_wheel.pop w ~cycle:(now + 1));
    check int "slot empty after drain" (-1) (Event_wheel.pop w ~cycle:(now + 1))
  done

let test_wheel_overflow () =
  let w = Event_wheel.create ~horizon:8 () in
  (* 100 cycles ahead: beyond the horizon, parked in the overflow bucket. *)
  Event_wheel.add w ~now:0 ~cycle:100 55;
  Event_wheel.add w ~now:0 ~cycle:101 66;
  check int "overflow holds both" 2 (Event_wheel.overflow_length w);
  for c = 1 to 99 do
    check int "nothing due in between" (-1) (Event_wheel.pop w ~cycle:c)
  done;
  check int "overflow delivered" 55 (Event_wheel.pop w ~cycle:100);
  check int "overflow entry gone" (-1) (Event_wheel.pop w ~cycle:100);
  check int "second overflow" 66 (Event_wheel.pop w ~cycle:101);
  check int "bucket empty" 0 (Event_wheel.overflow_length w)

let test_wheel_rejects_past () =
  let w = Event_wheel.create ~horizon:8 () in
  Alcotest.check_raises "past cycle rejected"
    (Invalid_argument "Event_wheel.add: cycle must be in the future") (fun () ->
      Event_wheel.add w ~now:5 ~cycle:5 1)

(* The cycle-jump scenario: the consumer's cycle counter jumps
   (a window restarts its clock, then schedules far past the pow2
   horizon), so an overflow entry's due cycle can be strictly below the
   cycle of the pop that should deliver it.  The stale-stamp bug left
   such entries stranded in the bucket forever. *)
let test_wheel_overdue_after_jump () =
  let w = Event_wheel.create ~horizon:8 () in
  (* Parked in the overflow bucket: 100 >> horizon. *)
  Event_wheel.add w ~now:0 ~cycle:100 9;
  check int "parked in overflow" 1 (Event_wheel.overflow_length w);
  (* The consumer's clock jumps straight past the due cycle. *)
  check int "overdue entry still delivered" 9 (Event_wheel.pop w ~cycle:250);
  check int "delivered once" (-1) (Event_wheel.pop w ~cycle:250);
  check int "bucket empty" 0 (Event_wheel.overflow_length w);
  check int "nothing pending" 0 (Event_wheel.pending w)

let test_wheel_next_due () =
  let w = Event_wheel.create ~horizon:8 () in
  check int "empty wheel: the limit" 50 (Event_wheel.next_due w ~from:1 ~limit:50);
  Event_wheel.add w ~now:0 ~cycle:5 1;
  check int "ring event" 5 (Event_wheel.next_due w ~from:1 ~limit:50);
  check int "capped by the limit" 4 (Event_wheel.next_due w ~from:1 ~limit:4);
  check int "due at from" 5 (Event_wheel.next_due w ~from:5 ~limit:50);
  Event_wheel.add w ~now:0 ~cycle:30 2;
  check int "overflow bucket" 30 (Event_wheel.next_due w ~from:6 ~limit:50);
  ignore (Event_wheel.pop w ~cycle:5);
  (* Horizon wrap: at now 27 an event due at 33 sits in slot 1, which
     the scan meets after wrapping past slot 7. *)
  Event_wheel.add w ~now:27 ~cycle:33 3;
  check int "overflow still first" 30 (Event_wheel.next_due w ~from:28 ~limit:50);
  ignore (Event_wheel.pop w ~cycle:30);
  check int "wrapped ring slot" 33 (Event_wheel.next_due w ~from:31 ~limit:50);
  check int "overdue overflow entry is due at from" 40
    (let w = Event_wheel.create ~horizon:8 () in
     Event_wheel.add w ~now:0 ~cycle:20 4;
     Event_wheel.next_due w ~from:40 ~limit:60)

(* Property: [next_due] against a linear scan of a Hashtbl calendar,
   with the consumer jumping to each answer as the cycle loop does. *)
let prop_next_due_matches_scan =
  QCheck.Test.make ~name:"next_due = linear-scan reference" ~count:50
    QCheck.small_int (fun seed ->
      let w = Event_wheel.create ~horizon:16 () in
      let calendar : (int, int list) Hashtbl.t = Hashtbl.create 64 in
      let rng = Prng.create (seed + 29) in
      let ok = ref true in
      let now = ref 0 in
      for _ = 0 to 300 do
        for _ = 1 to Prng.int rng 3 do
          let cycle = !now + 1 + Prng.int rng 40 in
          Event_wheel.add w ~now:!now ~cycle 1;
          Hashtbl.replace calendar cycle
            (1 :: Option.value ~default:[] (Hashtbl.find_opt calendar cycle))
        done;
        let from = !now + 1 in
        let limit = from + Prng.int rng 60 in
        let expected =
          Hashtbl.fold (fun c _ acc -> if c >= from && c < acc then c else acc) calendar limit
        in
        let got = Event_wheel.next_due w ~from ~limit in
        if got <> expected then ok := false;
        if got < limit then begin
          let n = List.length (Hashtbl.find calendar got) in
          Hashtbl.remove calendar got;
          for _ = 1 to n do
            if Event_wheel.pop w ~cycle:got < 0 then ok := false
          done;
          if Event_wheel.pop w ~cycle:got >= 0 then ok := false;
          now := got
        end
        else now := limit - 1
      done;
      !ok)

(* Property: against a (cycle -> payload list) Hashtbl calendar, over a
   random latency stream that regularly exceeds the horizon.  The
   per-cycle *population* must match exactly; the within-cycle order is
   additionally LIFO whenever every event of that cycle took the same
   path (all ring or all overflow), which the reference reproduces by
   prepending. *)
let prop_wheel_matches_hashtbl_calendar =
  QCheck.Test.make ~name:"event wheel = Hashtbl calendar" ~count:50
    QCheck.small_int (fun seed ->
      let horizon = 16 in
      let w = Event_wheel.create ~horizon () in
      let calendar : (int, int list) Hashtbl.t = Hashtbl.create 64 in
      let rng = Prng.create (seed + 17) in
      let ok = ref true in
      let payload = ref 0 in
      for now = 0 to 400 do
        (* 0-2 events per cycle, latencies 1..40 (horizon is 16, so a
           fair share land in the overflow bucket) *)
        for _ = 1 to Prng.int rng 3 do
          let latency = 1 + Prng.int rng 40 in
          incr payload;
          Event_wheel.add w ~now ~cycle:(now + latency) !payload;
          let prev =
            match Hashtbl.find_opt calendar (now + latency) with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace calendar (now + latency) (!payload :: prev)
        done;
        (* drain the next cycle on both sides *)
        let cycle = now + 1 in
        let expected = Option.value ~default:[] (Hashtbl.find_opt calendar cycle) in
        Hashtbl.remove calendar cycle;
        let got = ref [] in
        let rec drain () =
          let d = Event_wheel.pop w ~cycle in
          if d >= 0 then begin
            got := d :: !got;
            drain ()
          end
        in
        drain ();
        (* [got] is reversed pop order; equal-as-sets and equal lengths *)
        if List.sort compare !got <> List.sort compare expected then ok := false
      done;
      let still_due = Hashtbl.fold (fun _ l a -> List.length l + a) calendar 0 in
      if Event_wheel.pending w <> still_due then ok := false;
      !ok)

(* ---------------- Wakeup lists ---------------- *)

let test_wakeup_lifo () =
  let wk = Wakeup.create 8 in
  Wakeup.push wk ~producer:2 ~consumer:5 ~link:0;
  Wakeup.push wk ~producer:2 ~consumer:6 ~link:1;
  Wakeup.push wk ~producer:2 ~consumer:7 ~link:0;
  check bool "non-empty" false (Wakeup.is_empty wk 2);
  check int "newest first" 7 (Wakeup.pop wk 2);
  check int "then" 6 (Wakeup.pop wk 2);
  check int "then oldest" 5 (Wakeup.pop wk 2);
  check int "exhausted" (-1) (Wakeup.pop wk 2);
  check bool "empty again" true (Wakeup.is_empty wk 2)

let test_wakeup_multi_producer () =
  let wk = Wakeup.create 8 in
  (* One consumer waits on two producers through distinct links. *)
  Wakeup.push wk ~producer:0 ~consumer:4 ~link:0;
  Wakeup.push wk ~producer:1 ~consumer:4 ~link:1;
  check int "woken by producer 0" 4 (Wakeup.pop wk 0);
  check int "woken by producer 1" 4 (Wakeup.pop wk 1);
  check int "both lists empty" (-1) (Wakeup.pop wk 0)

let test_wakeup_reset () =
  let wk = Wakeup.create 4 in
  Wakeup.push wk ~producer:1 ~consumer:2 ~link:0;
  Wakeup.push wk ~producer:1 ~consumer:3 ~link:2;
  Wakeup.reset wk 1;
  check bool "reset empties" true (Wakeup.is_empty wk 1);
  check int "pop after reset" (-1) (Wakeup.pop wk 1)

(* ---------------- Int table ---------------- *)

let prop_int_table_matches_hashtbl =
  QCheck.Test.make ~name:"int table = Hashtbl reference" ~count:50
    QCheck.small_int (fun seed ->
      let t = Int_table.create 64 in
      let h : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let rng = Prng.create (seed + 3) in
      let ok = ref true in
      for _ = 1 to 2000 do
        let key = Prng.int rng 200 in
        match Prng.int rng 3 with
        | 0 ->
          let v = Prng.int rng 1000 in
          if Hashtbl.length h < 64 || Hashtbl.mem h key then begin
            Int_table.replace t key v;
            Hashtbl.replace h key v
          end
        | 1 ->
          Int_table.remove t key;
          Hashtbl.remove h key
        | _ ->
          let expected =
            match Hashtbl.find_opt h key with Some v -> v | None -> -1
          in
          if Int_table.find t key <> expected then ok := false
      done;
      if Int_table.length t <> Hashtbl.length h then ok := false;
      !ok)

(* ---------------- Bitset scan primitives ---------------- *)

let test_bitset_next_set () =
  let b = Bitset.create 130 in
  List.iter (Bitset.set b) [ 0; 62; 63; 64; 129 ];
  check int "from 0" 0 (Bitset.next_set b 0);
  check int "from 1" 62 (Bitset.next_set b 1);
  check int "word boundary 63" 63 (Bitset.next_set b 63);
  check int "word boundary 64" 64 (Bitset.next_set b 64);
  check int "last bit" 129 (Bitset.next_set b 65);
  check int "past the end" (-1) (Bitset.next_set b 130)

let test_bitset_nth_set () =
  let b = Bitset.create 130 in
  List.iter (Bitset.set b) [ 3; 62; 64; 100; 129 ];
  check int "0th" 3 (Bitset.nth_set b 0);
  check int "2nd crosses words" 64 (Bitset.nth_set b 2);
  check int "4th" 129 (Bitset.nth_set b 4);
  check int "out of range" (-1) (Bitset.nth_set b 5)

(* Reference for the circular scan: walk the indices from [i], wrapping. *)
let circular_reference b n i =
  let rec go k =
    if k = n then -1
    else
      let j = (i + k) mod n in
      if Bitset.mem b j then j else go (k + 1)
  in
  go 0

let prop_bitset_circular_matches_scan =
  QCheck.Test.make ~name:"next_set_circular = reference" ~count:100
    QCheck.small_int (fun seed ->
      let n = 96 + (seed mod 64) in
      let rng = Prng.create (seed + 11) in
      let b = Bitset.create n in
      let density = 1 + Prng.int rng 8 in
      for i = 0 to n - 1 do
        if Prng.int rng (4 * density) = 0 then Bitset.set b i
      done;
      List.for_all
        (fun i -> Bitset.next_set_circular b i = circular_reference b n (i mod n))
        [ 0; 1; 62; 63; 64; n - 1; n; Prng.int rng n ])

(* ---------------- Incremental TAGE folds ---------------- *)

let test_tage_incremental_folds () =
  let t = Tage.create ~seed:0x7a9e () in
  let rng = Prng.create 0xbeef in
  for i = 0 to 2000 do
    let pc = Prng.int rng 512 in
    let taken = Prng.int rng 3 <> 0 in
    ignore (Tage.predict_and_update t ~pc ~taken);
    if i mod 100 = 0 then
      check bool
        (Printf.sprintf "fold registers = direct fold after %d updates" i)
        true (Tage.self_check t)
  done;
  check bool "fold registers sound at the end" true (Tage.self_check t)

(* ---------------- Engine-level: GC budget ---------------- *)

(* The steady-state cycle loop does not allocate on the minor heap.
   Quiet cycles are skipped in bulk, so dividing by simulated cycles
   would dilute a per-stepped-cycle leak by the share skipped (about
   three quarters on mcf).  The budget is instead per retired
   instruction, over the marginal words between a 50k and a 100k window
   of one trace, which cancels every one-time per-run cost.  mcf steps
   about 0.6 cycles per instruction, so one reintroduced 2-word block
   per stepped cycle reads above 1 word per instruction; the budget of
   0.25 leaves room only for noise. *)
let test_gc_budget () =
  let w = Catalog.make ~input:Workload.Ref ~instrs:100_000 "mcf" in
  let trace = Workload.trace w in
  let cfg = Cpu_config.skylake in
  let words measure =
    let m0 = Gc.minor_words () in
    let stats = Cpu_core.run_window ~start:0 ~warmup:0 ~measure cfg trace in
    let m1 = Gc.minor_words () in
    check int "window retired in full" measure stats.Cpu_stats.retired;
    m1 -. m0
  in
  (* warm run settles one-time lazy setup *)
  ignore (words 50_000);
  let per_instr = (words 100_000 -. words 50_000) /. 50_000. in
  Printf.printf "marginal minor words per instruction: %.4f\n" per_instr;
  if per_instr > 0.25 then
    Alcotest.failf
      "cycle loop allocates %.2f minor words per retired instruction (budget \
       0.25): the allocation-free engine invariant is broken"
      per_instr

(* ---------------- Random-ready picker ---------------- *)

(* pick_random now stops at the winner via nth_set; the draw and the
   resulting pick sequence must stay what the full-iteration walk gave,
   i.e. the n-th ready slot in index order under the same seeded draws. *)
let test_pick_random_deterministic () =
  let mk () =
    let s = Scheduler.create ~seed:42 ~slots:16 ~span:16 Scheduler.Random_ready in
    for _ = 1 to 10 do
      ignore (Scheduler.allocate_slot s ~critical:false)
    done;
    for slot = 0 to 15 do
      if Scheduler.slot_occupied s slot then Scheduler.mark_ready s slot
    done;
    s
  in
  let a = mk () and b = mk () in
  Scheduler.begin_cycle a;
  Scheduler.begin_cycle b;
  for _ = 1 to 10 do
    check int "same seeded pick sequence" (Scheduler.select a) (Scheduler.select b)
  done;
  check int "exhausted candidates" (-1) (Scheduler.select a)

let () =
  Alcotest.run "engine"
    [ ( "event_wheel",
        [ Alcotest.test_case "basics" `Quick test_wheel_basic;
          Alcotest.test_case "same-cycle LIFO" `Quick test_wheel_same_cycle_lifo;
          Alcotest.test_case "wrap-around" `Quick test_wheel_wraparound;
          Alcotest.test_case "overflow bucket" `Quick test_wheel_overflow;
          Alcotest.test_case "rejects past cycles" `Quick test_wheel_rejects_past;
          Alcotest.test_case "overdue delivery after cycle jump" `Quick
            test_wheel_overdue_after_jump;
          QCheck_alcotest.to_alcotest prop_wheel_matches_hashtbl_calendar;
          Alcotest.test_case "next_due" `Quick test_wheel_next_due;
          QCheck_alcotest.to_alcotest prop_next_due_matches_scan ] );
      ( "wakeup",
        [ Alcotest.test_case "LIFO pop" `Quick test_wakeup_lifo;
          Alcotest.test_case "multi-producer links" `Quick test_wakeup_multi_producer;
          Alcotest.test_case "reset" `Quick test_wakeup_reset ] );
      ("int_table", [ QCheck_alcotest.to_alcotest prop_int_table_matches_hashtbl ]);
      ( "bitset_scan",
        [ Alcotest.test_case "next_set" `Quick test_bitset_next_set;
          Alcotest.test_case "nth_set" `Quick test_bitset_nth_set;
          QCheck_alcotest.to_alcotest prop_bitset_circular_matches_scan ] );
      ("tage", [ Alcotest.test_case "incremental folds" `Quick test_tage_incremental_folds ]);
      ("gc_budget", [ Alcotest.test_case "steady state allocation-free" `Quick test_gc_budget ]);
      ( "random_picker",
        [ Alcotest.test_case "random picker deterministic" `Quick
            test_pick_random_deterministic ] ) ]
