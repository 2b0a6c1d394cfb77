let candidate_offsets =
  let smooth n =
    let rec strip n p = if n mod p = 0 then strip (n / p) p else n in
    strip (strip (strip n 2) 3) 5 = 1
  in
  List.filter smooth (List.init 256 (fun i -> i + 1))

type t = {
  offsets : int array;
  scores : int array;
  rr : int array;  (* recent-requests table: stores line numbers, -1 empty *)
  rr_mask : int;
  score_max : int;
  round_max : int;
  bad_score : int;
  mutable next_candidate : int;  (* index into offsets, round-robin *)
  mutable round : int;
  mutable active_offset : int;  (* 0 = disabled *)
}

let create ?(rr_entries = 256) ?(score_max = 31) ?(round_max = 100) ?(bad_score = 1) () =
  if rr_entries land (rr_entries - 1) <> 0 then
    invalid_arg "Bop.create: rr_entries not a power of two";
  { offsets = Array.of_list candidate_offsets;
    scores = Array.make (List.length candidate_offsets) 0;
    rr = Array.make rr_entries (-1);
    rr_mask = rr_entries - 1;
    score_max;
    round_max;
    bad_score;
    next_candidate = 0;
    round = 0;
    active_offset = 1 }

let rr_index t line = (line lxor (line lsr 8)) land t.rr_mask

let record_fill t ~line = t.rr.(rr_index t line) <- line

let rr_contains t line = t.rr.(rr_index t line) = line

let end_learning_phase t =
  let best = ref 0 in
  Array.iteri (fun i s -> if s > t.scores.(!best) then best := i) t.scores;
  t.active_offset <-
    (if t.scores.(!best) <= t.bad_score then 0 else t.offsets.(!best));
  Array.fill t.scores 0 (Array.length t.scores) 0;
  t.round <- 0;
  t.next_candidate <- 0

let train t ~line =
  let i = t.next_candidate in
  if rr_contains t (line - t.offsets.(i)) then begin
    t.scores.(i) <- t.scores.(i) + 1;
    if t.scores.(i) >= t.score_max then end_learning_phase t
  end;
  t.next_candidate <- t.next_candidate + 1;
  if t.next_candidate >= Array.length t.offsets then begin
    t.next_candidate <- 0;
    t.round <- t.round + 1;
    if t.round >= t.round_max then end_learning_phase t
  end

let query_line t ~line = if t.active_offset = 0 then -1 else line + t.active_offset

let query t ~line =
  match query_line t ~line with -1 -> None | l -> Some l

let best_offset t = if t.active_offset = 0 then None else Some t.active_offset
