(* A small library of standard list/arithmetic predicates, written in
   plain Prolog, available to programs that want them (the REPL and
   the CLI tools load it on request).  Everything here compiles with
   the standard code path -- no special support. *)

let source =
  {|
    % ---- lists ----------------------------------------------------
    append([], L, L).
    append([H|T], L, [H|R]) :- append(T, L, R).

    member(X, [X|_]).
    member(X, [_|T]) :- member(X, T).

    memberchk(X, [X|_]) :- !.
    memberchk(X, [_|T]) :- memberchk(X, T).

    length(L, N) :- length_acc(L, 0, N).
    length_acc([], N, N).
    length_acc([_|T], N0, N) :- N1 is N0 + 1, length_acc(T, N1, N).

    reverse(L, R) :- reverse_acc(L, [], R).
    reverse_acc([], Acc, Acc).
    reverse_acc([H|T], Acc, R) :- reverse_acc(T, [H|Acc], R).

    nth0(0, [X|_], X) :- !.
    nth0(N, [_|T], X) :- N > 0, N1 is N - 1, nth0(N1, T, X).

    nth1(N, L, X) :- N0 is N - 1, nth0(N0, L, X).

    last([X], X) :- !.
    last([_|T], X) :- last(T, X).

    select(X, [X|T], T).
    select(X, [H|T], [H|R]) :- select(X, T, R).

    sum_list(L, S) :- sum_list_acc(L, 0, S).
    sum_list_acc([], S, S).
    sum_list_acc([X|T], S0, S) :- S1 is S0 + X, sum_list_acc(T, S1, S).

    max_list([X|T], M) :- max_list_acc(T, X, M).
    max_list_acc([], M, M).
    max_list_acc([X|T], M0, M) :-
        (X > M0 -> max_list_acc(T, X, M) ; max_list_acc(T, M0, M)).

    min_list([X|T], M) :- min_list_acc(T, X, M).
    min_list_acc([], M, M).
    min_list_acc([X|T], M0, M) :-
        (X < M0 -> min_list_acc(T, X, M) ; min_list_acc(T, M0, M)).

    msort(L, S) :- msort_qs(L, S, []).
    msort_qs([], R, R).
    msort_qs([X|L], R, R0) :-
        msort_part(L, X, L1, L2),
        msort_qs(L1, R, [X|R1]),
        msort_qs(L2, R1, R0).
    msort_part([], _, [], []).
    msort_part([X|L], Y, [X|L1], L2) :-
        X =< Y, !, msort_part(L, Y, L1, L2).
    msort_part([X|L], Y, L1, [X|L2]) :- msort_part(L, Y, L1, L2).

    % ---- integers --------------------------------------------------
    between(L, H, L) :- L =< H.
    between(L, H, X) :- L < H, L1 is L + 1, between(L1, H, X).

    numlist(L, H, []) :- L > H, !.
    numlist(L, H, [L|T]) :- L1 is L + 1, numlist(L1, H, T).

    succ_int(X, Y) :- Y is X + 1.
    plus(A, B, C) :- C is A + B.
  |}
