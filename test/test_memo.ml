(* The concurrent answer table: canonical keys (variant queries
   collide, different queries don't), variant-checking insert, the
   multi-domain stress contract (no lost inserts, no duplicate
   answers, counters exact), and the eviction bound. *)

let term s = Prolog.Parser.term_of_string s

let key s =
  match Memo.Canon.key_of_query s with
  | Ok k -> k
  | Error msg -> Alcotest.failf "key_of_query %S: %s" s msg

(* ---------------- canonical keys ---------------- *)

let test_canon_variants () =
  let a = key "qsort([3,1,2], S)" in
  let b = key "qsort([3,1,2], Result)" in
  Alcotest.(check string) "variant queries share a key" a.Memo.Canon.code
    b.Memo.Canon.code;
  Alcotest.(check string) "spec" "qsort/2" a.Memo.Canon.spec;
  let c = key "qsort([3,1,9], S)" in
  Alcotest.(check bool) "different input, different key" false
    (a.Memo.Canon.code = c.Memo.Canon.code)

let test_canon_shared_vars () =
  (* sharing must be visible: f(X, X) is not a variant of f(X, Y) *)
  let a = key "f(X, X)" in
  let b = key "f(X, Y)" in
  Alcotest.(check bool) "sharing distinguishes" false
    (a.Memo.Canon.code = b.Memo.Canon.code)

let test_answer_text_variants () =
  let a = [ ("S", term "[1,2|T]") ] in
  let b = [ ("S", term "[1,2|Rest]") ] in
  Alcotest.(check string) "variant answers share text"
    (Memo.Canon.answer_text a) (Memo.Canon.answer_text b);
  let c = [ ("S", term "[1,3|T]") ] in
  Alcotest.(check bool) "different answers differ" false
    (Memo.Canon.answer_text a = Memo.Canon.answer_text c)

(* ---------------- canonical keys, property form ----------------

   Canonical keys are equal exactly when the queries are variants:
   random consistent renamings of the variables must collide, and
   argument permutations must collide only when the permuted call is
   still a variant (decided by an independent reference check). *)

(* Reference variant check: a bijective variable mapping exists. *)
let variants t1 t2 =
  let fwd = Hashtbl.create 8 and bwd = Hashtbl.create 8 in
  let bind tbl a b =
    match Hashtbl.find_opt tbl a with
    | Some b' -> b = b'
    | None ->
      Hashtbl.add tbl a b;
      true
  in
  let rec go t1 t2 =
    match (t1, t2) with
    | Prolog.Term.Var v1, Prolog.Term.Var v2 ->
      bind fwd v1 v2 && bind bwd v2 v1
    | Prolog.Term.Atom a, Prolog.Term.Atom b -> a = b
    | Prolog.Term.Int a, Prolog.Term.Int b -> a = b
    | Prolog.Term.Struct (f, a), Prolog.Term.Struct (g, b) ->
      f = g && List.length a = List.length b && List.for_all2 go a b
    | _ -> false
  in
  go t1 t2

let call_gen =
  let open QCheck.Gen in
  let arg =
    oneof
      [
        map (fun v -> Prolog.Term.Var v) (oneofl [ "X"; "Y"; "Z"; "W" ]);
        map (fun a -> Prolog.Term.Atom a) (oneofl [ "a"; "b" ]);
        map (fun i -> Prolog.Term.Int i) (int_range 0 3);
        map2
          (fun f v -> Prolog.Term.Struct (f, [ Prolog.Term.Var v ]))
          (oneofl [ "f"; "g" ])
          (oneofl [ "X"; "Y"; "Z" ]);
      ]
  in
  map2
    (fun f args -> Prolog.Term.Struct (f, args))
    (oneofl [ "p"; "q" ])
    (list_size (int_range 1 4) arg)

let call_arb = QCheck.make ~print:Prolog.Pretty.to_string call_gen

let rec rename_vars f = function
  | Prolog.Term.Var v -> Prolog.Term.Var (f v)
  | Prolog.Term.Struct (g, args) ->
    Prolog.Term.Struct (g, List.map (rename_vars f) args)
  | (Prolog.Term.Atom _ | Prolog.Term.Int _) as t -> t

let prop_key_renaming =
  QCheck.Test.make ~name:"canon: keys invariant under variable renaming"
    ~count:300
    QCheck.(pair call_arb (int_bound 3))
    (fun (t, shift) ->
      (* a consistent bijective renaming onto fresh names *)
      let fresh v =
        Printf.sprintf "R%d"
          ((Char.code v.[0] + shift) mod 7)
      in
      let t' = rename_vars fresh t in
      let k = Memo.Canon.key_of_term t and k' = Memo.Canon.key_of_term t' in
      k.Memo.Canon.spec = k'.Memo.Canon.spec
      && k.Memo.Canon.code = k'.Memo.Canon.code)

let prop_key_iff_variant =
  QCheck.Test.make
    ~name:"canon: permuted args collide iff still a variant" ~count:300
    QCheck.(pair call_arb (int_bound 23))
    (fun (t, code) ->
      match t with
      | Prolog.Term.Struct (f, args) ->
        (* decode a permutation of up to 4 args from [code] *)
        let a = Array.of_list args in
        let n = Array.length a in
        let code = ref code in
        for i = n - 1 downto 1 do
          let j = !code mod (i + 1) in
          code := !code / (i + 1);
          let tmp = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- tmp
        done;
        let t' = Prolog.Term.Struct (f, Array.to_list a) in
        let k = Memo.Canon.key_of_term t
        and k' = Memo.Canon.key_of_term t' in
        (k.Memo.Canon.code = k'.Memo.Canon.code) = variants t t'
      | _ -> false)

(* Two calls whose printed forms once coincided: the quoted atom
   'A'', ''B' (f/1) and the two atoms 'A', 'B' (f/2).  Their keys
   differ, and a table holding one never answers the other. *)
let test_canon_quoted_commas () =
  let one = key "f('A'', ''B')" and two = key "f('A', 'B')" in
  Alcotest.(check string) "f/1" "f/1" one.Memo.Canon.spec;
  Alcotest.(check string) "f/2" "f/2" two.Memo.Canon.spec;
  Alcotest.(check bool) "different codes" false
    (one.Memo.Canon.code = two.Memo.Canon.code);
  let t = Memo.Table.create ~capacity_words:0 () in
  ignore (Memo.Table.insert t two [ [] ]);
  Alcotest.(check bool) "the f/2 entry does not answer f/1" true
    (Memo.Table.find t one = None)

(* An anonymous variable is its own variable, never a named one. *)
let test_canon_anonymous_is_fresh () =
  let anon = key "p(_G1, _)" and shared = key "p(X, X)" in
  Alcotest.(check bool) "p(_G1, _) is not p(X, X)" false
    (anon.Memo.Canon.code = shared.Memo.Canon.code);
  Alcotest.(check string) "p(_G1, _) is p(X, Y)" (key "p(X, Y)").Memo.Canon.code
    anon.Memo.Canon.code

(* The test's own renaming: variables become _G0, _G1, ... in
   first-occurrence order. *)
let reference_rename t =
  let names = Hashtbl.create 8 in
  rename_vars
    (fun v ->
      match Hashtbl.find_opt names v with
      | Some c -> c
      | None ->
        let c = Printf.sprintf "_G%d" (Hashtbl.length names) in
        Hashtbl.add names v c;
        c)
    t

let prop_key_text =
  QCheck.Test.make
    ~name:"canon: a key's text is the renamed call printed, and reads back"
    ~count:1000
    (QCheck.make ~print:Prolog.Pretty.to_string Test_prolog.roundtrip_gen)
    (fun t ->
      let k = Memo.Canon.key_of_term t in
      let text = Memo.Canon.text k in
      text = Prolog.Pretty.to_string (reference_rename t)
      &&
      match Memo.Canon.key_of_query text with
      | Ok k' ->
        k'.Memo.Canon.code = k.Memo.Canon.code
        && k'.Memo.Canon.spec = k.Memo.Canon.spec
        && k'.Memo.Canon.words = k.Memo.Canon.words
      | Error _ -> false)

(* ---------------- insert/find basics ---------------- *)

let test_insert_find () =
  let t = Memo.Table.create ~capacity_words:0 () in
  let k = key "tak(8,4,2, A)" in
  Alcotest.(check bool) "miss first" true (Memo.Table.find t k = None);
  let added = Memo.Table.insert t k [ [ ("A", Prolog.Term.Int 3) ] ] in
  Alcotest.(check int) "one answer added" 1 added;
  (match Memo.Table.find t k with
  | Some [ [ ("A", Prolog.Term.Int 3) ] ] -> ()
  | _ -> Alcotest.fail "expected the inserted answer back");
  (* a variant duplicate dedupes *)
  let added = Memo.Table.insert t k [ [ ("A", Prolog.Term.Int 3) ] ] in
  Alcotest.(check int) "duplicate dropped" 0 added;
  let s = Memo.Table.totals t in
  Alcotest.(check int) "inserts" 1 s.Memo.Table.inserts;
  Alcotest.(check int) "duplicates" 1 s.Memo.Table.duplicates;
  Alcotest.(check int) "hits" 1 s.Memo.Table.hits;
  Alcotest.(check int) "misses" 1 s.Memo.Table.misses;
  Alcotest.(check int) "entries" 1 s.Memo.Table.entries

(* Two answers that differ only in variable names, in one list, into
   a fresh entry: the first goes in unprinted, and the second is still
   found to be its variant.  A later variant is one more duplicate; an
   answer whose variables share less is no variant. *)
let test_fresh_entry_dedup () =
  let t = Memo.Table.create ~capacity_words:0 () in
  let k = key "p(X)" in
  let answer v w = [ ("X", Prolog.Term.Struct ("f", [ Prolog.Term.Var v; Prolog.Term.Var w ])) ] in
  let counts () =
    let s = Memo.Table.totals t in
    (s.Memo.Table.inserts, s.Memo.Table.duplicates)
  in
  Alcotest.(check int) "one of two variants added" 1
    (Memo.Table.insert t k [ answer "_A" "_A"; answer "_B" "_B" ]);
  Alcotest.(check (pair int int)) "inserts, duplicates" (1, 1) (counts ());
  Alcotest.(check int) "a third variant dropped" 0 (Memo.Table.insert t k [ answer "_C" "_C" ]);
  Alcotest.(check (pair int int)) "one more duplicate" (1, 2) (counts ());
  Alcotest.(check int) "f(_C, _D) is no variant of f(_A, _A)" 1
    (Memo.Table.insert t k [ answer "_C" "_D" ]);
  Alcotest.(check (pair int int)) "one more insert" (2, 2) (counts ());
  Alcotest.(check bool) "answers in first-insert order" true
    (Memo.Table.find t k = Some [ answer "_A" "_A"; answer "_C" "_D" ])

let test_empty_answer_set () =
  (* failure is memoable: an entry with zero answers is a hit *)
  let t = Memo.Table.create ~capacity_words:0 () in
  let k = key "impossible(X)" in
  ignore (Memo.Table.insert t k []);
  match Memo.Table.find t k with
  | Some [] -> ()
  | _ -> Alcotest.fail "expected a hit with an empty answer set"

(* ---------------- multi-domain stress ---------------- *)

(* N domains race M mixed lookups/inserts over a small overlapping key
   set.  Afterwards: every key holds exactly its one canonical answer
   (no lost insert, no duplicate), and the atomic counters account for
   every operation performed. *)
let test_parallel_stress () =
  let n_keys = 8 and n_domains = 4 and ops = 300 in
  let t = Memo.Table.create ~shards:4 ~capacity_words:0 () in
  let keys =
    Array.init n_keys (fun i -> key (Printf.sprintf "stress(%d, X)" i))
  in
  let answer i = [ ("X", Prolog.Term.Int (1000 + i)) ] in
  let finds = Atomic.make 0 and tries = Atomic.make 0 in
  let worker d () =
    let state = ref ((d * 7919) + 17) in
    let rnd bound =
      state := (!state * 1103515245) + 12345;
      ((!state lsr 16) land 0x7fffffff) mod bound
    in
    for _ = 1 to ops do
      let i = rnd n_keys in
      match Memo.Table.find t keys.(i) with
      | Some answers ->
        Atomic.incr finds;
        if answers <> [ answer i ] then
          failwith "stress: wrong or duplicated answer set"
      | None ->
        Atomic.incr finds;
        ignore (Memo.Table.insert t keys.(i) [ answer i ]);
        Atomic.incr tries
    done
  in
  let domains =
    List.init n_domains (fun d -> Domain.spawn (fun () -> worker d ()))
  in
  List.iter Domain.join domains;
  let s = Memo.Table.totals t in
  Alcotest.(check int) "every find counted"
    (Atomic.get finds)
    (s.Memo.Table.hits + s.Memo.Table.misses);
  Alcotest.(check int) "every insert attempt counted"
    (Atomic.get tries)
    (s.Memo.Table.inserts + s.Memo.Table.duplicates);
  Alcotest.(check int) "no lost inserts: one answer per key" n_keys
    s.Memo.Table.inserts;
  Alcotest.(check int) "all keys live" n_keys s.Memo.Table.entries;
  Array.iteri
    (fun i k ->
      match Memo.Table.find t k with
      | Some [ a ] when a = answer i -> ()
      | Some answers ->
        Alcotest.failf "key %d: %d answers (want exactly 1)" i
          (List.length answers)
      | None -> Alcotest.failf "key %d: lost" i)
    keys

(* ---------------- eviction ---------------- *)

let test_eviction_bound () =
  let capacity = 120 in
  let t = Memo.Table.create ~shards:1 ~capacity_words:capacity () in
  let n = 40 in
  for i = 0 to n - 1 do
    let k = key (Printf.sprintf "evict(%d, X)" i) in
    ignore (Memo.Table.insert t k [ [ ("X", term "[a,b,c,d]") ] ]);
    let s = Memo.Table.totals t in
    if s.Memo.Table.words > capacity then
      Alcotest.failf "after insert %d: %d words > capacity %d" i
        s.Memo.Table.words capacity;
    (* the entry just inserted is never the victim *)
    Alcotest.(check bool)
      (Printf.sprintf "key %d survives its own insert" i)
      true (Memo.Table.mem t k)
  done;
  let s = Memo.Table.totals t in
  Alcotest.(check bool) "evictions happened" true
    (s.Memo.Table.evictions > 0);
  Alcotest.(check bool) "entries bounded" true (s.Memo.Table.entries < n)

let test_eviction_lru_ish () =
  let t = Memo.Table.create ~shards:1 ~capacity_words:200 () in
  let hot = key "hot(X)" in
  ignore (Memo.Table.insert t hot [ [ ("X", term "[h,o,t]") ] ]);
  for i = 0 to 30 - 1 do
    (* keep the hot key fresh while colder keys churn through *)
    ignore (Memo.Table.find t hot);
    let k = key (Printf.sprintf "cold(%d, X)" i) in
    ignore (Memo.Table.insert t k [ [ ("X", term "[c,o,l,d,e,r]") ] ])
  done;
  Alcotest.(check bool) "hot key survives the churn" true
    (Memo.Table.mem t hot);
  Alcotest.(check bool) "cold keys were evicted" true
    ((Memo.Table.totals t).Memo.Table.evictions > 0)

let test_unbounded_never_evicts () =
  let t = Memo.Table.create ~capacity_words:0 () in
  for i = 0 to 99 do
    let k = key (Printf.sprintf "nolimit(%d, X)" i) in
    ignore (Memo.Table.insert t k [ [ ("X", term "[1,2,3,4,5,6]") ] ])
  done;
  let s = Memo.Table.totals t in
  Alcotest.(check int) "no evictions" 0 s.Memo.Table.evictions;
  Alcotest.(check int) "all entries live" 100 s.Memo.Table.entries

(* ---------------- snapshots ---------------- *)

let with_temp ext f =
  let path = Filename.temp_file "memo" ext in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_all path = In_channel.with_open_bin path In_channel.input_all

let overwrite path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let snap_table () =
  let t = Memo.Table.create ~capacity_words:0 () in
  ignore (Memo.Table.insert t (key "qsort([3,1,2], S)")
      [ [ ("S", term "[1,2,3]") ] ]);
  ignore (Memo.Table.insert t (key "deriv(x*x, x, D)")
      [ [ ("D", term "1*x+x*1") ] ]);
  ignore (Memo.Table.insert t (key "append(A, B, [1,2])")
      [
        [ ("A", term "[]"); ("B", term "[1,2]") ];
        [ ("A", term "[1]"); ("B", term "[2]") ];
        [ ("A", term "[1,2]"); ("B", term "[]") ];
      ]);
  ignore (Memo.Table.insert t (key "impossible(X)") []);
  t

let entry_texts t =
  Memo.Table.fold t
    (fun k answers acc ->
      (Memo.Canon.text k, List.map Memo.Canon.answer_text answers) :: acc)
    []
  |> List.sort compare

let test_snapshot_roundtrip () =
  let t = snap_table () in
  with_temp ".snap" (fun path ->
      let saved = Memo.Snapshot.save t path in
      Alcotest.(check int) "all entries written" 4 saved;
      (* equal tables produce equal bytes *)
      with_temp ".snap2" (fun path2 ->
          ignore (Memo.Snapshot.save (snap_table ()) path2);
          Alcotest.(check string) "snapshot is canonical" (read_all path)
            (read_all path2));
      let fresh = Memo.Table.create ~capacity_words:0 () in
      let st = Memo.Snapshot.restore fresh path in
      Alcotest.(check int) "all entries restored" 4 st.Memo.Snapshot.entries;
      Alcotest.(check int) "none skipped" 0 st.Memo.Snapshot.skipped;
      Alcotest.(check bool) "not torn" false st.Memo.Snapshot.torn;
      Alcotest.(check
                  (list (pair string (list string))))
        "restored table holds the same answers" (entry_texts t)
        (entry_texts fresh);
      (* restoring over a live table dedupes instead of duplicating *)
      let st2 = Memo.Snapshot.restore fresh path in
      Alcotest.(check int) "re-restore inserts nothing new" 4
        st2.Memo.Snapshot.entries;
      Alcotest.(check (list (pair string (list string))))
        "table unchanged by re-restore" (entry_texts t) (entry_texts fresh))

let test_snapshot_salvage () =
  let t = snap_table () in
  with_temp ".snap" (fun path ->
      let saved = Memo.Snapshot.save t path in
      let full = read_all path in
      (* tear the image mid-body: the surviving prefix restores *)
      overwrite path (String.sub full 0 (String.length full * 2 / 3));
      let fresh = Memo.Table.create ~capacity_words:0 () in
      let st = Memo.Snapshot.restore fresh path in
      Alcotest.(check bool) "tear detected" true st.Memo.Snapshot.torn;
      Alcotest.(check bool) "some but not all entries survive" true
        (st.Memo.Snapshot.entries < saved);
      let survivors = entry_texts fresh in
      let original = entry_texts t in
      List.iter
        (fun e ->
          Alcotest.(check bool) "survivor is genuine" true
            (List.mem e original))
        survivors;
      (* not a snapshot at all: the typed error *)
      overwrite path "RAPWAMJL garbage with the wrong magic";
      (match Memo.Snapshot.restore fresh path with
      | exception Memo.Snapshot.Snapshot_error _ -> ()
      | _ -> Alcotest.fail "expected Snapshot_error on a journal file");
      (* an unparsable payload inside a valid frame is skipped, not
         fatal: rebuild the image with one poisoned frame *)
      let poisoned =
        String.sub full 0 16
        ^ Resilience.Frame.encode Resilience.Frame.journal "K )(not a term"
        ^ String.sub full 16 (String.length full - 16)
      in
      overwrite path poisoned;
      let fresh2 = Memo.Table.create ~capacity_words:0 () in
      let st3 = Memo.Snapshot.restore fresh2 path in
      Alcotest.(check int) "good frames all restored" saved
        st3.Memo.Snapshot.entries;
      Alcotest.(check int) "poisoned frame skipped" 1
        st3.Memo.Snapshot.skipped;
      Alcotest.(check bool) "no tear" false st3.Memo.Snapshot.torn)

(* Keys and answers holding atoms the printer must escape save and
   restore whole. *)
let test_snapshot_awkward_atoms () =
  let t = Memo.Table.create ~capacity_words:0 () in
  ignore (Memo.Table.insert t (key "say('it''s', X)") [ [ ("X", term "'a\\nb'") ] ]);
  ignore
    (Memo.Table.insert t (key "say('a\\nb', X)")
       [ [ ("X", term "f('it''s', '\\\\')") ] ]);
  with_temp ".snap" (fun path ->
      Alcotest.(check int) "both entries written" 2 (Memo.Snapshot.save t path);
      let fresh = Memo.Table.create ~capacity_words:0 () in
      let st = Memo.Snapshot.restore fresh path in
      Alcotest.(check int) "both entries restored" 2 st.Memo.Snapshot.entries;
      Alcotest.(check int) "none skipped" 0 st.Memo.Snapshot.skipped;
      Alcotest.(check (list (pair string (list string))))
        "equal answers" (entry_texts t) (entry_texts fresh))

let suite =
  [
    Alcotest.test_case "canon: variant queries collide" `Quick
      test_canon_variants;
    Alcotest.test_case "canon: sharing distinguishes" `Quick
      test_canon_shared_vars;
    QCheck_alcotest.to_alcotest prop_key_renaming;
    QCheck_alcotest.to_alcotest prop_key_iff_variant;
    Alcotest.test_case "canon: answer variants" `Quick
      test_answer_text_variants;
    Alcotest.test_case "insert/find/dedupe + counters" `Quick
      test_insert_find;
    Alcotest.test_case "failure is memoable" `Quick test_empty_answer_set;
    Alcotest.test_case "4-domain stress: no lost/duplicate answers" `Quick
      test_parallel_stress;
    Alcotest.test_case "eviction respects the capacity bound" `Quick
      test_eviction_bound;
    Alcotest.test_case "eviction is LRU-ish" `Quick test_eviction_lru_ish;
    Alcotest.test_case "capacity 0 = unbounded" `Quick
      test_unbounded_never_evicts;
    Alcotest.test_case "snapshot save/restore roundtrip" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "snapshot salvage under damage" `Quick
      test_snapshot_salvage;
    Alcotest.test_case "snapshot keeps escaped atoms" `Quick
      test_snapshot_awkward_atoms;
    Alcotest.test_case "canon: quoted commas do not collide" `Quick
      test_canon_quoted_commas;
    Alcotest.test_case "canon: anonymous variables are fresh" `Quick
      test_canon_anonymous_is_fresh;
    QCheck_alcotest.to_alcotest prop_key_text;
    Alcotest.test_case "a fresh entry dedupes variants in one insert" `Quick
      test_fresh_entry_dedup;
  ]
