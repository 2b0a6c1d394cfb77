(* Tests for the set-associative cache model. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let small_params = { Cache.size_bytes = 1024; assoc = 2; line_bytes = 64 }
(* 1024 / (2 * 64) = 8 sets *)

let test_hit_after_miss () =
  let c = Cache.create small_params in
  check bool "cold miss" false (Cache.access c ~addr:0);
  check bool "then hit" true (Cache.access c ~addr:0);
  check bool "same line hits" true (Cache.access c ~addr:63);
  check bool "next line misses" false (Cache.access c ~addr:64);
  check int "two misses" 2 (Cache.misses c);
  check int "two hits" 2 (Cache.hits c)

let test_lru_eviction_order () =
  let c = Cache.create small_params in
  (* three lines mapping to set 0 in a 2-way cache: 8 sets * 64B stride *)
  let a = 0 and b = 8 * 64 and d = 16 * 64 in
  ignore (Cache.access c ~addr:a);
  ignore (Cache.access c ~addr:b);
  ignore (Cache.access c ~addr:a);
  (* b is LRU *)
  ignore (Cache.access c ~addr:d);
  check bool "most recent survives" true (Cache.probe c ~addr:a);
  check bool "LRU way evicted" false (Cache.probe c ~addr:b);
  check bool "new line resident" true (Cache.probe c ~addr:d)

let test_probe_is_pure () =
  let c = Cache.create small_params in
  check bool "probe misses" false (Cache.probe c ~addr:0);
  check int "probe does not count" 0 (Cache.misses c);
  check bool "still absent" false (Cache.probe c ~addr:0)

let test_prefetch_bit () =
  let c = Cache.create small_params in
  Cache.fill_prefetch c ~addr:128;
  check int "prefetch fill counted" 1 (Cache.prefetch_fills c);
  check bool "first demand access reports prefetched" true
    (Cache.access_info c ~addr:128 = `Hit_prefetched);
  check bool "second demand access is a plain hit" true
    (Cache.access_info c ~addr:128 = `Hit);
  check int "one useful prefetch" 1 (Cache.prefetch_hits c)

let test_prefetch_existing_is_noop () =
  let c = Cache.create small_params in
  ignore (Cache.access c ~addr:256);
  Cache.fill_prefetch c ~addr:256;
  check int "no duplicate fill" 0 (Cache.prefetch_fills c);
  check bool "demand hit, not prefetched" true (Cache.access_info c ~addr:256 = `Hit)

let test_invalidate () =
  let c = Cache.create small_params in
  ignore (Cache.access c ~addr:0);
  Cache.invalidate c ~addr:0;
  check bool "line gone" false (Cache.probe c ~addr:0)

let test_non_power_of_two_sets () =
  (* 20-way 1 MiB LLC: 819 sets, exercising modulo indexing *)
  let c =
    Cache.create { Cache.size_bytes = 1024 * 1024; assoc = 20; line_bytes = 64 }
  in
  for i = 0 to 999 do
    ignore (Cache.access c ~addr:(i * 64))
  done;
  for i = 0 to 999 do
    check bool "working set below capacity stays resident" true
      (Cache.probe c ~addr:(i * 64))
  done

let prop_residency_subset_of_accesses =
  QCheck.Test.make ~name:"resident lines were accessed or prefetched" ~count:30
    QCheck.(small_int)
    (fun seed ->
      let c = Cache.create small_params in
      let rng = Prng.create (seed + 5) in
      let touched = Hashtbl.create 64 in
      for _ = 1 to 500 do
        let addr = Prng.int rng 16384 in
        Hashtbl.replace touched (Cache.line_of c addr) ();
        if Prng.int rng 4 = 0 then Cache.fill_prefetch c ~addr
        else ignore (Cache.access c ~addr)
      done;
      (* every line still probing as resident must have been touched *)
      let ok = ref true in
      for line = 0 to 16384 / 64 do
        if Cache.probe c ~addr:(line * 64) && not (Hashtbl.mem touched line) then
          ok := false
      done;
      !ok)

let prop_capacity_bound =
  QCheck.Test.make ~name:"residency never exceeds capacity" ~count:20
    QCheck.small_int (fun seed ->
      let c = Cache.create small_params in
      let rng = Prng.create (seed + 11) in
      for _ = 1 to 2000 do
        ignore (Cache.access c ~addr:(Prng.int rng (1 lsl 20)))
      done;
      let resident = ref 0 in
      for line = 0 to (1 lsl 20) / 64 do
        if Cache.probe c ~addr:(line * 64) then incr resident
      done;
      !resident <= small_params.Cache.size_bytes / small_params.Cache.line_bytes)

let () =
  Alcotest.run "cache"
    [ ( "cache",
        [ Alcotest.test_case "hit after miss" `Quick test_hit_after_miss;
          Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "probe is pure" `Quick test_probe_is_pure;
          Alcotest.test_case "prefetched-bit tracking" `Quick test_prefetch_bit;
          Alcotest.test_case "prefetch of resident line" `Quick
            test_prefetch_existing_is_noop;
          Alcotest.test_case "invalidate" `Quick test_invalidate;
          Alcotest.test_case "non-power-of-two sets" `Quick test_non_power_of_two_sets;
          QCheck_alcotest.to_alcotest prop_residency_subset_of_accesses;
          QCheck_alcotest.to_alcotest prop_capacity_bound ] ) ]
