(* Packed int-array bitsets. 63 usable bits per word on 64-bit OCaml;
   [Sys.int_size] keeps the arithmetic correct on any word size. *)

let bits = Sys.int_size

type t = { n : int; words : int array }

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { n; words = Array.make ((n + bits - 1) / bits) 0 }

let capacity s = s.n

let check s i name =
  if i < 0 || i >= s.n then
    invalid_arg (Printf.sprintf "Bitset.%s: index %d out of range [0, %d)" name i s.n)

let mem s i =
  check s i "mem";
  s.words.(i / bits) land (1 lsl (i mod bits)) <> 0

let add s i =
  check s i "add";
  let w = i / bits in
  s.words.(w) <- s.words.(w) lor (1 lsl (i mod bits))

(* Kernighan popcount: one iteration per set bit, and candidate rows are
   sparse after a few clique commits, so this beats a table in practice. *)
let popcount w =
  let c = ref 0 and w = ref w in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr c
  done;
  !c

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let is_empty s = Array.for_all (fun w -> w = 0) s.words

let copy s = { s with words = Array.copy s.words }

(* Scan set bits of one word in increasing order by repeatedly isolating
   the lowest set bit. *)
let iter_word f base w =
  let w = ref w in
  while !w <> 0 do
    let low = !w land - !w in
    (* log2 of a single set bit via float exponent would lose precision at
       bit 62; a small loop over the word is branch-predictable and rare. *)
    let b = ref 0 in
    let v = ref low in
    while !v land 1 = 0 do
      v := !v lsr 1;
      incr b
    done;
    f (base + !b);
    w := !w land (!w - 1)
  done

let iter f s =
  Array.iteri (fun wi w -> if w <> 0 then iter_word f (wi * bits) w) s.words

let fold f s acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) s;
  !acc

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

let next_member s i =
  if i >= s.n then None
  else begin
    let i = max i 0 in
    let wi = ref (i / bits) in
    let nwords = Array.length s.words in
    (* Mask off bits below [i] in the first word, then walk whole words. *)
    let first = s.words.(!wi) land lnot ((1 lsl (i mod bits)) - 1) in
    let found = ref None in
    let scan w base =
      if w <> 0 then begin
        let low = w land -w in
        let b = ref 0 and v = ref low in
        while !v land 1 = 0 do
          v := !v lsr 1;
          incr b
        done;
        found := Some (base + !b)
      end
    in
    scan first (!wi * bits);
    incr wi;
    while !found = None && !wi < nwords do
      scan s.words.(!wi) (!wi * bits);
      incr wi
    done;
    !found
  end

let same_capacity a b name =
  if a.n <> b.n then
    invalid_arg (Printf.sprintf "Bitset.%s: capacity mismatch (%d vs %d)" name a.n b.n)

let inter_iter f a b =
  same_capacity a b "inter_iter";
  Array.iteri
    (fun wi w ->
      let w = w land b.words.(wi) in
      if w <> 0 then iter_word f (wi * bits) w)
    a.words

let subset a b =
  same_capacity a b "subset";
  let ok = ref true in
  Array.iteri (fun wi w -> if w land lnot b.words.(wi) <> 0 then ok := false) a.words;
  !ok
