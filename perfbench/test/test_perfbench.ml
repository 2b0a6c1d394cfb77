open Perfbench_kit

let feq = Alcotest.float 1e-9

(* ---- percentiles ---- *)

let ints n = List.init n (fun i -> float_of_int (i + 1))

let test_tail_margin () =
  (* 128 cells: p90 is the 116th smallest, leaving 12 beyond. *)
  Alcotest.(check (option feq)) "p90 of 128" (Some 116.) (Pct.percentile_opt (ints 128) 90.);
  (* 100 samples leave exactly 10 beyond p90: allowed. *)
  Alcotest.(check (option feq)) "p90 of 100" (Some 90.) (Pct.percentile_opt (ints 100) 90.);
  Alcotest.(check (option feq)) "p90 of 99" None (Pct.percentile_opt (ints 99) 90.);
  Alcotest.(check (option feq)) "p99 of 999" None (Pct.percentile_opt (ints 999) 99.);
  Alcotest.(check (option feq)) "p99 of 1000" (Some 990.) (Pct.percentile_opt (ints 1000) 99.)

let test_samples_needed () =
  List.iter
    (fun p ->
      let n = Pct.samples_needed p in
      Alcotest.(check bool) "defined at n" true (Pct.percentile_opt (ints n) p <> None);
      Alcotest.(check bool) "undefined at n-1" true (Pct.percentile_opt (ints (n - 1)) p = None);
      Alcotest.(check bool) "ten beyond" true (Pct.beyond ~n p >= Pct.min_beyond))
    [ 50.; 90.; 99. ]

let test_median () =
  Alcotest.check feq "odd" 2. (Pct.median [ 3.; 1.; 2. ]);
  Alcotest.check feq "even" 2.5 (Pct.median [ 4.; 1.; 3.; 2. ]);
  (* Unsorted input with an outlier. *)
  Alcotest.check feq "outlier" 5. (Pct.median [ 5.; 1000.; 4.; 6.; 1. ])

let test_min_of () =
  Alcotest.check feq "min" 1. (Pct.min_of [ 3.; 1.; 2. ]);
  Alcotest.check feq "max" 3. (Pct.max_of [ 3.; 1.; 2. ])

(* ---- host probe ---- *)

let test_probe () =
  (* The kernel is a fixed computation: the same answer every time. *)
  Alcotest.(check int) "deterministic" (Probe.kernel ()) (Probe.kernel ());
  (* The factor is the median probe time over the nominal one. *)
  let n = Probe.nominal_s in
  Alcotest.check feq "factor" 1.5 (Probe.factor [ n; 1.5 *. n; 9. *. n ]);
  let t = Probe.create () in
  Probe.run t;
  Probe.run t;
  Alcotest.(check int) "samples" 2 (List.length (Probe.samples t));
  Alcotest.(check bool) "positive" true (Probe.host_factor t > 0.)

(* ---- span self time ---- *)

let span ?(parent = Span.no_parent) id start stop =
  { Span.id; parent; name = "s" ^ string_of_int id; tag = ""; start; stop; lane = 0 }

let self_of spans id =
  snd (List.find (fun ((s : Span.t), _) -> s.Span.id = id) (Span.self_times spans))

let test_self_time () =
  let spans =
    [ span 0 0. 10.;
      (* two overlapping children cover [1, 5] once *)
      span ~parent:0 1 1. 3.;
      span ~parent:0 2 2. 5.;
      span ~parent:0 3 7. 8.;
      (* a grandchild counts against its parent only *)
      span ~parent:2 4 2.5 4.;
      (* a child running past its parent is clipped *)
      span ~parent:3 5 7.5 9. ]
  in
  Alcotest.check feq "root" 5. (self_of spans 0);
  Alcotest.check feq "leaf" 2. (self_of spans 1);
  Alcotest.check feq "middle" 1.5 (self_of spans 2);
  Alcotest.check feq "clipped child" 0.5 (self_of spans 3);
  let total = List.fold_left (fun a (_, s) -> a +. s) 0. (Span.self_times spans) in
  (* Self times of a nested tree add up to the root duration, plus the
     time siblings 1 and 2 overlap ([2, 3]) and the part of span 5
     outside its parent ([8, 9]). *)
  Alcotest.check feq "sum" (10. +. 1. +. 1.) total

let test_record_nesting () =
  Span.reset ();
  Span.set_enabled true;
  let r =
    Span.record ~tag:"cell" "outer" (fun parent ->
        Span.record ~parent ~tag:"cell" "inner" (fun _ -> 42))
  in
  Span.set_enabled false;
  Alcotest.(check int) "value" 42 r;
  let spans = Span.spans () in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let outer = List.find (fun s -> s.Span.name = "outer") spans in
  let inner = List.find (fun s -> s.Span.name = "inner") spans in
  Alcotest.(check int) "parent link" outer.Span.id inner.Span.parent;
  (* Disabled recording still runs the body and records nothing. *)
  Alcotest.(check int) "off" 7 (Span.record "x" (fun p -> if p = Span.no_parent then 7 else 0));
  Alcotest.(check int) "still two" 2 (List.length (Span.spans ()));
  let json = Obs_json.to_string (Span.to_chrome spans) in
  ignore (Obs_json.parse json);
  Span.reset ()

(* ---- failure accounting ---- *)

let pinned_of kvs =
  let p = Tally.Pinned.empty () in
  List.iter (fun (k, v) -> Tally.Pinned.set p ~workload:"w" k v) kvs;
  p

let run_checks pinned actual =
  let t = Tally.create () in
  List.iter (fun (k, v) -> Tally.expect t pinned ~workload:"w" k v) actual;
  t

let values = [ ("mcf/64/180", 0.1234567890123); ("xz/cycles", 539662.) ]

let test_pinned_roundtrip () =
  let p = pinned_of values in
  let back = Tally.Pinned.of_json (Obs_json.parse (Obs_json.to_string (Tally.Pinned.to_json p))) in
  let t = run_checks back values in
  Alcotest.(check int) "attempted" 2 (Tally.attempted t);
  Alcotest.(check int) "failed" 0 (Tally.failed t);
  Alcotest.check feq "ratio" 0. (Tally.fail_ratio t)

let test_perturbed_pin () =
  (* One ulp off in one pinned value is one failed operation. *)
  let perturbed =
    pinned_of [ ("mcf/64/180", Float.succ 0.1234567890123); ("xz/cycles", 539662.) ]
  in
  let t = run_checks perturbed values in
  Alcotest.(check int) "failed" 1 (Tally.failed t);
  Alcotest.check feq "ratio" 0.5 (Tally.fail_ratio t);
  (* A degraded (NaN) value and a missing pin also count. *)
  let t = run_checks (pinned_of values) [ ("mcf/64/180", Float.nan); ("gcc/x", 1.) ] in
  Alcotest.(check int) "nan + missing" 2 (Tally.failed t);
  Alcotest.(check int) "reasons" 2 (List.length (Tally.reasons t))

let () =
  Alcotest.run "perfbench"
    [ ( "percentile",
        [ Alcotest.test_case "ten beyond the tail" `Quick test_tail_margin;
          Alcotest.test_case "samples needed" `Quick test_samples_needed;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "min and max" `Quick test_min_of ] );
      ("probe", [ Alcotest.test_case "fixed kernel, median factor" `Quick test_probe ]);
      ( "spans",
        [ Alcotest.test_case "self time subtracts nested children" `Quick test_self_time;
          Alcotest.test_case "record links parents" `Quick test_record_nesting ] );
      ( "failures",
        [ Alcotest.test_case "pins round-trip" `Quick test_pinned_roundtrip;
          Alcotest.test_case "perturbed pin raises fail_ratio" `Quick test_perturbed_pin ] ) ]
