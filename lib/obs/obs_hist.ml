let num_buckets = 48

type t = {
  counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable max_v : int;
}

let create () = { counts = Array.make num_buckets 0; total = 0; sum = 0; max_v = 0 }

let bucket_index v =
  if v <= 0 then 0
  else begin
    let i = ref 1 in
    let bound = ref 2 in
    (* value in [2^(i-1), 2^i) lands in bucket i *)
    while v >= !bound && !i < num_buckets - 1 do
      incr i;
      bound := !bound * 2
    done;
    !i
  end

let add t v =
  let v = max 0 v in
  t.counts.(bucket_index v) <- t.counts.(bucket_index v) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v > t.max_v then t.max_v <- v

let count t = t.total

let sum t = t.sum

let max_value t = t.max_v


let lower_bound i = if i = 0 then 0 else 1 lsl (i - 1)

let buckets t =
  let acc = ref [] in
  for i = num_buckets - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (lower_bound i, t.counts.(i)) :: !acc
  done;
  !acc
