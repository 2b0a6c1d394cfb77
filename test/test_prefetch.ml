(* Tests for the stream and best-offset prefetchers. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ---------------- Stream ---------------- *)

let test_stream_detects_ascending () =
  let s = Stream_prefetcher.create ~degree:4 () in
  ignore (Stream_prefetcher.access s ~line:100);
  ignore (Stream_prefetcher.access s ~line:101);
  let p = Stream_prefetcher.access s ~line:102 in
  check bool "prefetches ahead" true (List.mem 103 p);
  check int "degree lines" 4 (List.length p)

let test_stream_detects_descending () =
  let s = Stream_prefetcher.create ~degree:2 () in
  ignore (Stream_prefetcher.access s ~line:500);
  ignore (Stream_prefetcher.access s ~line:499);
  let p = Stream_prefetcher.access s ~line:498 in
  check bool "prefetches downward" true (List.mem 497 p)

let test_stream_ignores_random () =
  let s = Stream_prefetcher.create () in
  let rng = Prng.create 17 in
  let issued = ref 0 in
  for _ = 1 to 200 do
    issued := !issued + List.length (Stream_prefetcher.access s ~line:(Prng.int rng 1_000_000))
  done;
  check bool "almost no prefetches on random lines" true (!issued < 20)

(* ---------------- BOP ---------------- *)

let test_bop_offset_list () =
  check bool "1 is a candidate" true (List.mem 1 Bop.candidate_offsets);
  check bool "30 = 2*3*5 is a candidate" true (List.mem 30 Bop.candidate_offsets);
  check bool "7 is not a candidate" false (List.mem 7 Bop.candidate_offsets);
  check bool "all within 256" true (List.for_all (fun d -> d <= 256) Bop.candidate_offsets)

let test_bop_learns_constant_offset () =
  let b = Bop.create ~round_max:10 () in
  (* an access stream with constant line offset 4: X, X+4, X+8, ... *)
  for i = 0 to 4000 do
    let line = 1000 + (i * 4) in
    Bop.record_fill b ~line;
    Bop.train b ~line
  done;
  (match Bop.best_offset b with
  | Some d -> check int "learned offset 4" 4 d
  | None -> Alcotest.fail "BOP disabled itself on a regular stream");
  match Bop.query b ~line:5000 with
  | Some target -> check int "prefetch at line+4" 5004 target
  | None -> Alcotest.fail "no prefetch"

let test_bop_disables_on_random () =
  let b = Bop.create ~round_max:5 ~bad_score:2 () in
  let rng = Prng.create 23 in
  for _ = 0 to 20_000 do
    let line = Prng.int rng 1_000_000 in
    Bop.record_fill b ~line;
    Bop.train b ~line
  done;
  check bool "prefetching off on random misses" true (Bop.best_offset b = None)


let () =
  Alcotest.run "prefetch"
    [ ( "stream",
        [ Alcotest.test_case "ascending stream" `Quick test_stream_detects_ascending;
          Alcotest.test_case "descending stream" `Quick test_stream_detects_descending;
          Alcotest.test_case "random traffic" `Quick test_stream_ignores_random ] );
      ( "bop",
        [ Alcotest.test_case "offset candidates" `Quick test_bop_offset_list;
          Alcotest.test_case "learns constant offset" `Quick test_bop_learns_constant_offset;
          Alcotest.test_case "disables on random" `Quick test_bop_disables_on_random ] ) ]
