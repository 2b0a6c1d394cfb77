(* Tests for the branch prediction substrate: bimodal, TAGE, the branch
   target buffer and the return address stack. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------------- Bimodal ---------------- *)

let test_bimodal_saturation () =
  let p = Bimodal.create () in
  for _ = 1 to 10 do
    Bimodal.update p ~pc:100 ~taken:true
  done;
  check int "counter saturates at 3" 3 (Bimodal.counter p ~pc:100);
  check bool "predicts taken" true (Bimodal.predict p ~pc:100);
  Bimodal.update p ~pc:100 ~taken:false;
  check bool "hysteresis: one not-taken keeps prediction" true
    (Bimodal.predict p ~pc:100)

let test_bimodal_learns_not_taken () =
  let p = Bimodal.create () in
  for _ = 1 to 4 do
    Bimodal.update p ~pc:8 ~taken:false
  done;
  check bool "predicts not taken" false (Bimodal.predict p ~pc:8)

(* ---------------- TAGE ---------------- *)

let accuracy_of_pattern predictor_updates n =
  let t = Tage.create () in
  let correct = ref 0 in
  for i = 0 to n - 1 do
    let pc, taken = predictor_updates i in
    if Tage.predict_and_update t ~pc ~taken = taken then incr correct
  done;
  float_of_int !correct /. float_of_int n

let test_tage_biased_branch () =
  let acc = accuracy_of_pattern (fun _ -> (12, true)) 2000 in
  check bool "always-taken learned" true (acc > 0.98)

let test_tage_short_loop () =
  (* a loop taken 7 times then not taken once: needs history *)
  let acc = accuracy_of_pattern (fun i -> (64, i mod 8 <> 7)) 8000 in
  check bool "loop-exit pattern learned (>95%)" true (acc > 0.95)

let test_tage_long_pattern_beats_bimodal () =
  (* period-12 pattern: far beyond bimodal, within TAGE history reach *)
  let pattern i = i mod 12 < 6 in
  let tage_acc = accuracy_of_pattern (fun i -> (9, pattern i)) 12_000 in
  let bim = Bimodal.create () in
  let correct = ref 0 in
  for i = 0 to 11_999 do
    if Bimodal.predict bim ~pc:9 = pattern i then incr correct;
    Bimodal.update bim ~pc:9 ~taken:(pattern i)
  done;
  let bim_acc = float_of_int !correct /. 12_000. in
  check bool "tage beats bimodal on long patterns" true (tage_acc > bim_acc +. 0.1)

let test_tage_random_is_hard () =
  let rng = Prng.create 99 in
  let acc = accuracy_of_pattern (fun _ -> (77, Prng.bool rng)) 4000 in
  check bool "random outcomes stay near 50%" true (acc < 0.65)

let test_tage_counters () =
  let t = Tage.create () in
  for i = 0 to 99 do
    ignore (Tage.predict_and_update t ~pc:5 ~taken:(i land 1 = 0))
  done;
  check int "prediction count" 100 (Tage.predictions t);
  check bool "mispredictions bounded by predictions" true
    (Tage.mispredictions t <= Tage.predictions t)

let prop_tage_never_crashes =
  QCheck.Test.make ~name:"tage handles arbitrary streams" ~count:20
    QCheck.small_int (fun seed ->
      let t = Tage.create () in
      let rng = Prng.create (seed + 1) in
      for _ = 1 to 2000 do
        ignore
          (Tage.predict_and_update t ~pc:(Prng.int rng 4096) ~taken:(Prng.bool rng))
      done;
      Tage.predictions t = 2000)

(* ---------------- BTB ---------------- *)

let test_btb_hit_after_update () =
  let btb = Btb.create ~entries:64 ~assoc:4 () in
  check bool "cold miss" true (Btb.lookup btb ~pc:10 = None);
  Btb.update btb ~pc:10 ~target:99;
  check bool "hit with target" true (Btb.lookup btb ~pc:10 = Some 99);
  Btb.update btb ~pc:10 ~target:123;
  check bool "target refreshed" true (Btb.lookup btb ~pc:10 = Some 123)

let test_btb_lru_eviction () =
  let btb = Btb.create ~entries:4 ~assoc:4 () in
  (* one set of four ways: fill it, then insert a fifth mapping *)
  List.iter (fun pc -> Btb.update btb ~pc ~target:pc) [ 0; 4; 8; 12 ];
  ignore (Btb.lookup btb ~pc:0);
  (* pc 4 is now LRU *)
  Btb.update btb ~pc:16 ~target:16;
  check bool "recently used survives" true (Btb.lookup btb ~pc:0 = Some 0);
  check bool "LRU way evicted" true (Btb.lookup btb ~pc:4 = None)

(* ---------------- RAS ---------------- *)

let test_ras_lifo () =
  let ras = Ras.create ~depth:4 () in
  Ras.push ras 1;
  Ras.push ras 2;
  check bool "pop returns last push" true (Ras.pop ras = Some 2);
  check bool "then the previous" true (Ras.pop ras = Some 1);
  check bool "underflow" true (Ras.pop ras = None)

let test_ras_overflow_wraps () =
  let ras = Ras.create ~depth:2 () in
  List.iter (Ras.push ras) [ 1; 2; 3 ];
  check int "depth saturates" 2 (Ras.depth ras);
  check bool "newest survives overflow" true (Ras.pop ras = Some 3);
  check bool "oldest was overwritten" true (Ras.pop ras = Some 2);
  check bool "stack exhausted" true (Ras.pop ras = None)

let () =
  Alcotest.run "branch"
    [ ( "bimodal",
        [ Alcotest.test_case "saturation and hysteresis" `Quick test_bimodal_saturation;
          Alcotest.test_case "learns not-taken" `Quick test_bimodal_learns_not_taken ] );
      ( "tage",
        [ Alcotest.test_case "biased branch" `Quick test_tage_biased_branch;
          Alcotest.test_case "loop exit" `Quick test_tage_short_loop;
          Alcotest.test_case "long pattern vs bimodal" `Quick
            test_tage_long_pattern_beats_bimodal;
          Alcotest.test_case "random stays hard" `Quick test_tage_random_is_hard;
          Alcotest.test_case "counters" `Quick test_tage_counters;
          QCheck_alcotest.to_alcotest prop_tage_never_crashes ] );
      ( "btb",
        [ Alcotest.test_case "hit after update" `Quick test_btb_hit_after_update;
          Alcotest.test_case "LRU eviction" `Quick test_btb_lru_eviction ] );
      ( "ras",
        [ Alcotest.test_case "LIFO order" `Quick test_ras_lifo;
          Alcotest.test_case "overflow wraps" `Quick test_ras_overflow_wraps ] ) ]
